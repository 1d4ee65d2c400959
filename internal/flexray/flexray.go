// Package flexray simulates the hybrid FlexRay communication bus of §II-A
// of the paper at slot/minislot granularity.
//
// Each communication cycle consists of a static segment — a sequence of
// TDMA slots of equal length Ψ carrying time-triggered (TT) traffic — and a
// dynamic segment partitioned into minislots of length ψ ≪ Ψ carrying
// event-triggered (ET) traffic. A static slot transmits the message of its
// current owner inside a fixed window (deterministic timing); an unused
// static slot wastes the whole window. In the dynamic segment a slot
// counter advances once per minislot; when the counter reaches the frame ID
// of a pending message that still fits before the segment end, the message
// is transmitted (consuming several minislots); lower frame IDs therefore
// have higher priority, and timing depends on the other pending messages.
//
// All times are int64 nanoseconds for exact, platform-independent replay.
package flexray

import (
	"fmt"
	"sort"
)

// Nanoseconds per convenience unit.
const (
	Microsecond int64 = 1_000
	Millisecond int64 = 1_000_000
	Second      int64 = 1_000_000_000
)

// Config describes a FlexRay cycle. The §V case study uses a 5 ms cycle
// with a 2 ms static segment of 10 slots (Ψ = 0.2 ms); the remainder is the
// dynamic segment.
type Config struct {
	CycleLength    int64 // full communication cycle (ns)
	StaticSlots    int   // number of static slots
	StaticSlotLen  int64 // Ψ (ns)
	MinislotLen    int64 // ψ (ns)
	FrameMinislots int   // minislots one dynamic frame occupies when sent
}

// CaseStudyConfig returns the §V configuration: 5 ms cycle, 10 static slots
// in a 2 ms TT segment, 50 µs minislots, dynamic frames of 4 minislots.
func CaseStudyConfig() Config {
	return Config{
		CycleLength:    5 * Millisecond,
		StaticSlots:    10,
		StaticSlotLen:  200 * Microsecond,
		MinislotLen:    50 * Microsecond,
		FrameMinislots: 4,
	}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.CycleLength <= 0 {
		return fmt.Errorf("flexray: cycle length %d must be positive", c.CycleLength)
	}
	if c.StaticSlots <= 0 || c.StaticSlotLen <= 0 {
		return fmt.Errorf("flexray: need at least one static slot with positive length")
	}
	if c.MinislotLen <= 0 || c.FrameMinislots <= 0 {
		return fmt.Errorf("flexray: minislot and frame lengths must be positive")
	}
	if c.StaticSegment() >= c.CycleLength {
		return fmt.Errorf("flexray: static segment (%d ns) must leave room for the dynamic segment in a %d ns cycle",
			c.StaticSegment(), c.CycleLength)
	}
	if int64(c.FrameMinislots)*c.MinislotLen > c.DynamicSegment() {
		return fmt.Errorf("flexray: one dynamic frame (%d ns) does not fit the dynamic segment (%d ns)",
			int64(c.FrameMinislots)*c.MinislotLen, c.DynamicSegment())
	}
	return nil
}

// StaticSegment returns the static segment length in ns.
func (c Config) StaticSegment() int64 { return int64(c.StaticSlots) * c.StaticSlotLen }

// DynamicSegment returns the dynamic segment length in ns.
func (c Config) DynamicSegment() int64 { return c.CycleLength - c.StaticSegment() }

// DynamicMinislots returns how many minislots fit the dynamic segment.
func (c Config) DynamicMinislots() int { return int(c.DynamicSegment() / c.MinislotLen) }

// StaticSlotStart returns the offset of static slot s within a cycle.
func (c Config) StaticSlotStart(s int) int64 { return int64(s) * c.StaticSlotLen }

// StaticDelay returns the sensor-to-actuator communication delay of static
// slot s for a message enqueued at the cycle start: the slot's window end.
func (c Config) StaticDelay(s int) int64 { return c.StaticSlotStart(s) + c.StaticSlotLen }

// Message is one control-signal frame.
type Message struct {
	FrameID  int    // dynamic-segment priority: lower ID wins
	App      string // owning application (diagnostics)
	Enqueued int64  // time the message became ready (ns)
	Static   bool   // true → sent in the owner's static slot
	Slot     int    // static slot index when Static
}

// Arrival reports a delivered message.
type Arrival struct {
	Msg  Message
	Time int64 // delivery time (transmission window end), ns
}

// Bus is the cycle-stepped FlexRay simulator. Pending messages are queued
// with Send; ProcessCycle delivers what the cycle's schedule allows.
// At most one pending message per (app, static/dynamic) lane is kept: a
// newer control value supersedes an unsent older one, as a real controller
// task would overwrite its outgoing buffer.
type Bus struct {
	cfg         Config
	staticOwner map[int]string // static slot → owning app ("" = unassigned)
	pendStatic  map[int]*Message
	pendDyn     map[int]*Message // frame ID → pending message
	stats       Stats
}

// Stats accumulates bus-level counters for the experiment reports.
type Stats struct {
	Cycles            int
	StaticTransmitted int
	StaticWasted      int // owned static windows with nothing to send
	DynTransmitted    int
	DynMinislotsIdle  int
	DynDeferred       int // messages that could not be served in their cycle
}

// New creates a bus with the given configuration.
func New(cfg Config) (*Bus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bus{
		cfg:         cfg,
		staticOwner: make(map[int]string),
		pendStatic:  make(map[int]*Message),
		pendDyn:     make(map[int]*Message),
	}, nil
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Stats returns a copy of the accumulated counters.
func (b *Bus) Stats() Stats { return b.stats }

// AssignStatic gives ownership of static slot s to app (empty to release).
func (b *Bus) AssignStatic(s int, app string) error {
	if s < 0 || s >= b.cfg.StaticSlots {
		return fmt.Errorf("flexray: static slot %d outside [0, %d)", s, b.cfg.StaticSlots)
	}
	if app == "" {
		delete(b.staticOwner, s)
		return nil
	}
	b.staticOwner[s] = app
	return nil
}

// StaticOwner returns the owner of static slot s ("" if unassigned).
func (b *Bus) StaticOwner(s int) string { return b.staticOwner[s] }

// Send queues a message. A static message must name a slot currently owned
// by the sending app. A message replaces any unsent predecessor of the same
// app and lane.
func (b *Bus) Send(msg Message) error {
	if msg.Static {
		if msg.Slot < 0 || msg.Slot >= b.cfg.StaticSlots {
			return fmt.Errorf("flexray: send to static slot %d outside [0, %d)", msg.Slot, b.cfg.StaticSlots)
		}
		if owner := b.staticOwner[msg.Slot]; owner != msg.App {
			return fmt.Errorf("flexray: app %q does not own static slot %d (owner %q)", msg.App, msg.Slot, owner)
		}
		m := msg
		b.pendStatic[msg.Slot] = &m
		return nil
	}
	if msg.FrameID < 1 {
		return fmt.Errorf("flexray: dynamic frame ID %d must be ≥ 1", msg.FrameID)
	}
	m := msg
	b.pendDyn[msg.FrameID] = &m
	return nil
}

// ProcessCycle simulates the cycle starting at cycleStart and returns the
// arrivals it produces, in time order.
func (b *Bus) ProcessCycle(cycleStart int64) []Arrival {
	b.stats.Cycles++
	var arrivals []Arrival

	// Static segment: each owned slot transmits its pending message if the
	// data was ready by the slot window start.
	for s := 0; s < b.cfg.StaticSlots; s++ {
		owner, owned := b.staticOwner[s]
		if !owned || owner == "" {
			continue
		}
		windowStart := cycleStart + b.cfg.StaticSlotStart(s)
		msg, ok := b.pendStatic[s]
		if !ok || msg.Enqueued > windowStart {
			b.stats.StaticWasted++
			continue
		}
		delete(b.pendStatic, s)
		b.stats.StaticTransmitted++
		arrivals = append(arrivals, Arrival{Msg: *msg, Time: windowStart + b.cfg.StaticSlotLen})
	}

	// Dynamic segment: slot counter walks the minislots; a pending frame
	// transmits when its ID is reached, its data is ready, and it still
	// fits before the segment end.
	dynStart := cycleStart + b.cfg.StaticSegment()
	dynEnd := cycleStart + b.cfg.CycleLength
	t := dynStart
	frameLen := int64(b.cfg.FrameMinislots) * b.cfg.MinislotLen
	ids := b.sortedDynIDs()
	idIdx := 0
	for counter := 1; t < dynEnd; counter++ {
		var msg *Message
		for idIdx < len(ids) && ids[idIdx] < counter {
			idIdx++
		}
		if idIdx < len(ids) && ids[idIdx] == counter {
			msg = b.pendDyn[counter]
		}
		if msg != nil && msg.Enqueued <= t && t+frameLen <= dynEnd {
			delete(b.pendDyn, counter)
			b.stats.DynTransmitted++
			arrivals = append(arrivals, Arrival{Msg: *msg, Time: t + frameLen})
			t += frameLen
			continue
		}
		if msg != nil {
			// Ready too late or does not fit: wait for the next cycle.
			b.stats.DynDeferred++
		}
		b.stats.DynMinislotsIdle++
		t += b.cfg.MinislotLen
	}

	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Time < arrivals[j].Time })
	return arrivals
}

// PendingDynamic returns how many dynamic messages are waiting.
func (b *Bus) PendingDynamic() int { return len(b.pendDyn) }

func (b *Bus) sortedDynIDs() []int {
	ids := make([]int, 0, len(b.pendDyn))
	for id := range b.pendDyn {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
