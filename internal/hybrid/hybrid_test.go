package hybrid

import (
	"math"
	"testing"
)

func wireless() WirelessTDMA {
	return WirelessTDMA{
		Superframe: 0.020,
		Beacon:     0.001,
		CAP:        0.009,
		GTSSlots:   5,
		GTSLen:     0.002,
		Airtime:    0.0015,
		MaxBackoff: 0.0005,
		Retries:    2,
	}
}

func TestWirelessValidate(t *testing.T) {
	if err := wireless().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := wireless()
	bad.GTSSlots = 20 // overcommits the superframe
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for overcommitted superframe")
	}
	bad2 := wireless()
	bad2.Airtime = 0.01
	if err := bad2.Validate(); err == nil {
		t.Fatal("want error for frame larger than GTS")
	}
	bad3 := wireless()
	bad3.Retries = -1
	if err := bad3.Validate(); err == nil {
		t.Fatal("want error for negative retries")
	}
}

func TestWirelessDeterministicDelay(t *testing.T) {
	w := wireless()
	d0, err := w.DeterministicDelay(0)
	if err != nil {
		t.Fatal(err)
	}
	// beacon(1 ms) + CAP(9 ms) + first GTS(2 ms) = 12 ms.
	if math.Abs(d0-0.012) > 1e-12 {
		t.Fatalf("GTS0 delay = %g, want 12 ms", d0)
	}
	d4, err := w.DeterministicDelay(4)
	if err != nil {
		t.Fatal(err)
	}
	if d4 <= d0 {
		t.Fatal("later GTS must have a larger delay")
	}
	if _, err := w.DeterministicDelay(5); err == nil {
		t.Fatal("want error for GTS out of range")
	}
}

func TestWirelessBestEffortDelay(t *testing.T) {
	w := wireless()
	d2, err := w.BestEffortDelay(2)
	if err != nil {
		t.Fatal(err)
	}
	// per attempt: 0.5 ms backoff + 2×1.5 ms airtime = 3.5 ms; 3 attempts
	// = 10.5 ms > CAP 9 ms → superframe-counting branch.
	if d2 <= 0 {
		t.Fatalf("delay = %g", d2)
	}
	d6, err := w.BestEffortDelay(6)
	if err != nil {
		t.Fatal(err)
	}
	if d6 <= d2 {
		t.Fatal("more contenders must not shrink the worst case")
	}
	if _, err := w.BestEffortDelay(0); err == nil {
		t.Fatal("want error for zero contenders")
	}
}

func TestWirelessSingleContenderFastPath(t *testing.T) {
	w := wireless()
	w.Retries = 0
	d, err := w.BestEffortDelay(1)
	if err != nil {
		t.Fatal(err)
	}
	// One attempt: beacon + backoff + airtime = 1 + 0.5 + 1.5 = 3 ms.
	if math.Abs(d-0.003) > 1e-12 {
		t.Fatalf("delay = %g, want 3 ms", d)
	}
}
