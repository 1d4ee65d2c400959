// Package hybrid generalises the communication substrate beyond FlexRay, as
// §VI of the paper suggests: "the method … can be generally applied to
// other types of hybrid communication (such as wired and wireless
// communication), and other embedded control systems with limited
// resources, such as in the robotic domain."
//
// A hybrid channel offers a deterministic lane (reserved, bounded-delay
// resources — FlexRay static slots, 802.15.4 guaranteed time slots) and a
// best-effort lane (shared, contention-based — FlexRay dynamic segment,
// CSMA contention access period). The dwell/wait analysis of the paper only
// consumes the two worst-case delays, so any such medium plugs into the
// same pipeline; WirelessTDMA is the one the robotic-arm example uses.
package hybrid

import "fmt"

// WirelessTDMA models an IEEE 802.15.4-style beacon-enabled superframe: a
// beacon, a contention access period (CAP, CSMA/CA) and a contention-free
// period of guaranteed time slots (GTS). It is the substrate for the
// robotic-arm example: the deterministic lane is a GTS, the best-effort
// lane is the CAP with bounded retries.
type WirelessTDMA struct {
	Superframe float64 // superframe length (s)
	Beacon     float64 // beacon duration (s)
	CAP        float64 // contention access period (s)
	GTSSlots   int     // guaranteed time slots after the CAP
	GTSLen     float64 // one GTS duration (s)
	Airtime    float64 // one frame's airtime incl. ack (s)
	MaxBackoff float64 // worst-case CSMA backoff per attempt (s)
	Retries    int     // CSMA retry budget
}

// Validate checks the superframe layout.
func (w WirelessTDMA) Validate() error {
	if w.Superframe <= 0 || w.Beacon < 0 || w.CAP <= 0 || w.GTSLen <= 0 || w.Airtime <= 0 {
		return fmt.Errorf("hybrid: wireless durations must be positive")
	}
	if w.GTSSlots < 1 {
		return fmt.Errorf("hybrid: need at least one GTS")
	}
	if w.Retries < 0 {
		return fmt.Errorf("hybrid: negative retry budget")
	}
	used := w.Beacon + w.CAP + float64(w.GTSSlots)*w.GTSLen
	if used > w.Superframe+1e-12 {
		return fmt.Errorf("hybrid: superframe overcommitted: %.6f s used of %.6f s", used, w.Superframe)
	}
	if w.Airtime > w.GTSLen {
		return fmt.Errorf("hybrid: a frame (%.6f s) does not fit one GTS (%.6f s)", w.Airtime, w.GTSLen)
	}
	return nil
}

// DeterministicDelay returns the worst-case delay (seconds) of a message on
// GTS s, sampled at the start of the superframe: beacon + CAP + preceding
// GTSs + the slot itself.
func (w WirelessTDMA) DeterministicDelay(s int) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if s < 0 || s >= w.GTSSlots {
		return 0, fmt.Errorf("hybrid: GTS %d outside [0, %d)", s, w.GTSSlots)
	}
	return w.Beacon + w.CAP + float64(s+1)*w.GTSLen, nil
}

// BestEffortDelay returns the worst-case delay (seconds) on the CAP when n
// stations contend: every attempt costs the worst-case backoff plus airtime, and in the worst case the n−1 other stations each
// win once before us in every CAP; if the remaining CAP cannot carry our
// frame the attempt rolls into the next superframe.
func (w WirelessTDMA) BestEffortDelay(n int) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("hybrid: need at least one contender, got %d", n)
	}
	perAttempt := w.MaxBackoff + float64(n)*w.Airtime
	attempts := float64(w.Retries + 1)
	capPerFrame := w.CAP
	if perAttempt > capPerFrame {
		// Needs more than one CAP: count the superframes required.
		frames := attempts * perAttempt / capPerFrame
		return (frames + 1) * w.Superframe, nil
	}
	return w.Beacon + attempts*perAttempt, nil
}
