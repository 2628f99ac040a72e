package faults

import (
	"testing"
	"time"
)

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.3, Duplicate: 0.2, MaxDelay: 5 * time.Millisecond}
	a, b := New(cfg), New(cfg)
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			for seq := int64(1); seq <= 50; seq++ {
				for attempt := 0; attempt < 3; attempt++ {
					if a.Dropped(from, to, seq, attempt) != b.Dropped(from, to, seq, attempt) {
						t.Fatalf("drop decision diverged at %d→%d seq %d attempt %d", from, to, seq, attempt)
					}
				}
				if a.Duplicated(from, to, seq) != b.Duplicated(from, to, seq) {
					t.Fatalf("dup decision diverged at %d→%d seq %d", from, to, seq)
				}
				if a.Delay(from, to, seq, 0) != b.Delay(from, to, seq, 0) {
					t.Fatalf("delay diverged at %d→%d seq %d", from, to, seq)
				}
			}
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := New(Config{Seed: 1, Drop: 0.5})
	b := New(Config{Seed: 2, Drop: 0.5})
	diff := 0
	for seq := int64(1); seq <= 200; seq++ {
		if a.Dropped(0, 1, seq, 0) != b.Dropped(0, 1, seq, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical drop schedules")
	}
}

func TestDropRateApproximate(t *testing.T) {
	in := New(Config{Seed: 7, Drop: 0.1})
	dropped := 0
	const n = 20000
	for seq := int64(1); seq <= n; seq++ {
		if in.Dropped(0, 1, seq, 0) {
			dropped++
		}
	}
	rate := float64(dropped) / n
	if rate < 0.07 || rate > 0.13 {
		t.Fatalf("drop rate %.3f, want ≈0.1", rate)
	}
}

func TestMaxAttemptsForcesDelivery(t *testing.T) {
	in := New(Config{Seed: 3, Drop: 1.0, MaxAttempts: 4})
	for seq := int64(1); seq <= 100; seq++ {
		if !in.Dropped(0, 1, seq, 0) {
			t.Fatalf("seq %d: Drop=1.0 did not drop attempt 0", seq)
		}
		if in.Dropped(0, 1, seq, 4) {
			t.Fatalf("seq %d: attempt at MaxAttempts was dropped", seq)
		}
	}
}

func TestDelayBounded(t *testing.T) {
	max := 3 * time.Millisecond
	in := New(Config{Seed: 9, MaxDelay: max})
	for seq := int64(1); seq <= 1000; seq++ {
		if d := in.Delay(0, 1, seq, 0); d < 0 || d >= max {
			t.Fatalf("seq %d: delay %v outside [0, %v)", seq, d, max)
		}
	}
}

func TestNilInjectorIsNoFaults(t *testing.T) {
	var in *Injector
	if in.Dropped(0, 1, 1, 0) || in.Duplicated(0, 1, 1) || in.Delay(0, 1, 1, 0) != 0 {
		t.Fatal("nil injector injected a fault")
	}
	if _, ok := in.Crash(0); ok {
		t.Fatal("nil injector scheduled a crash")
	}
	if in.WillRestart(0) || in.AnyCrash() {
		t.Fatal("nil injector reports crashes")
	}
}

func TestCrashSchedule(t *testing.T) {
	in := New(Config{Crashes: []Crash{
		{Agent: 2, AfterSteps: 5, Restart: true},
		{Agent: 3, AfterSteps: 1},
		{Agent: 2, AfterSteps: 9}, // ignored: one crash per agent
	}})
	c, ok := in.Crash(2)
	if !ok || c.AfterSteps != 5 || !c.Restart {
		t.Fatalf("crash for agent 2 = %+v ok=%v", c, ok)
	}
	if c.RestartDelay != DefaultRestartDelay {
		t.Fatalf("default restart delay not applied: %v", c.RestartDelay)
	}
	if !in.WillRestart(2) || in.WillRestart(3) || in.WillRestart(0) {
		t.Fatal("WillRestart wrong")
	}
	if !in.AnyCrash() {
		t.Fatal("AnyCrash false with crashes scheduled")
	}
}

func TestCorruptSchedule(t *testing.T) {
	cfg := Config{Seed: 11, Corrupt: 0.15, MaxAttempts: 4}
	a, b := New(cfg), New(cfg)
	hits := 0
	const n = 20000
	for seq := int64(1); seq <= n; seq++ {
		if a.Corrupted(0, 1, seq, 0) != b.Corrupted(0, 1, seq, 0) {
			t.Fatalf("corrupt decision diverged at seq %d", seq)
		}
		if a.Corrupted(0, 1, seq, 0) {
			hits++
		}
		if a.Corrupted(0, 1, seq, 4) {
			t.Fatalf("seq %d: attempt at MaxAttempts was corrupted", seq)
		}
	}
	rate := float64(hits) / n
	if rate < 0.11 || rate > 0.19 {
		t.Fatalf("corrupt rate %.3f, want ≈0.15", rate)
	}
	// Corruption and drop schedules must be independent streams.
	both := New(Config{Seed: 11, Drop: 0.15, Corrupt: 0.15, MaxAttempts: 4})
	same := 0
	for seq := int64(1); seq <= 200; seq++ {
		if both.Dropped(0, 1, seq, 0) == both.Corrupted(0, 1, seq, 0) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("drop and corrupt schedules are identical")
	}
	var nilIn *Injector
	if nilIn.Corrupted(0, 1, 1, 0) {
		t.Fatal("nil injector corrupts frames")
	}
}

func TestBackoff(t *testing.T) {
	if Backoff(0) != BackoffBase {
		t.Fatalf("Backoff(0) = %v", Backoff(0))
	}
	prev := time.Duration(0)
	for a := 0; a < 12; a++ {
		d := Backoff(a)
		if d < prev {
			t.Fatalf("backoff not monotone at attempt %d", a)
		}
		if d > BackoffCap {
			t.Fatalf("backoff exceeds cap at attempt %d: %v", a, d)
		}
		prev = d
	}
	if Backoff(20) != BackoffCap {
		t.Fatalf("backoff not capped: %v", Backoff(20))
	}
}

// TestDropStreak pins the loss model both runtimes share: the streak is a
// pure function of (seed, link, seq, attempt), it never walks past
// MaxAttempts, and its delay is the summed Backoff of exactly the attempts
// Dropped reports lost.
func TestDropStreak(t *testing.T) {
	cfg := Config{Seed: 21, Drop: 0.6, MaxAttempts: 5}
	a, b := New(cfg), New(cfg)
	streaks := 0
	for seq := int64(1); seq <= 300; seq++ {
		for start := 0; start <= cfg.MaxAttempts+1; start++ {
			delay, got := a.DropStreak(2, 7, seq, start)
			if d2, g2 := b.DropStreak(2, 7, seq, start); d2 != delay || g2 != got {
				t.Fatalf("seq %d from %d: (%v, %d) vs (%v, %d) on an equal injector", seq, start, delay, got, d2, g2)
			}
			if d2, g2 := a.DropStreak(2, 7, seq, start); d2 != delay || g2 != got {
				t.Fatalf("seq %d from %d: repeated call gave (%v, %d), want (%v, %d)", seq, start, d2, g2, delay, got)
			}
			if got < start || got > max(start, cfg.MaxAttempts) {
				t.Fatalf("seq %d from %d: delivered attempt %d outside [%d, %d]", seq, start, got, start, max(start, cfg.MaxAttempts))
			}
			var want time.Duration
			for at := start; at < got; at++ {
				if !a.Dropped(2, 7, seq, at) {
					t.Fatalf("seq %d: attempt %d inside the streak is not dropped", seq, at)
				}
				want += Backoff(at)
			}
			if a.Dropped(2, 7, seq, got) {
				t.Fatalf("seq %d: delivered attempt %d is dropped", seq, got)
			}
			if delay != want {
				t.Fatalf("seq %d from %d: delay %v, want the summed backoff %v", seq, start, delay, want)
			}
			if got > start {
				streaks++
			}
		}
	}
	if streaks == 0 {
		t.Fatal("no drop streaks at 60% drop")
	}
	var nilIn *Injector
	if d, got := nilIn.DropStreak(0, 1, 1, 3); d != 0 || got != 3 {
		t.Fatalf("nil injector streak = (%v, %d), want (0, 3)", d, got)
	}
}

func TestCheckpoints(t *testing.T) {
	c := NewCheckpoints()
	if _, ok := c.Load(0); ok {
		t.Fatal("empty registry returned a checkpoint")
	}
	c.Save(0, "v1")
	c.Save(0, "v2")
	c.Save(1, 7)
	if got, ok := c.Load(0); !ok || got != "v2" {
		t.Fatalf("Load(0) = %v, %v", got, ok)
	}
	if got, ok := c.Load(1); !ok || got != 7 {
		t.Fatalf("Load(1) = %v, %v", got, ok)
	}
	if c.Saves() != 3 {
		t.Fatalf("Saves = %d", c.Saves())
	}
}
