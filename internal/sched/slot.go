package sched

import "math"

// member is one app's standing on a slot under construction: its inputs
// to eq. (5)/(20) — ξM, blocking and the higher-priority sums — and the
// outcome AnalyzeSlot would report for it.
type member struct {
	app      *App
	xiM      float64 // app.Model.MaxDwell()
	hpXi     float64 // Σ ξM over the higher-priority members, in priority order
	hpU      float64 // Σ ξM/r over the same members, in the same order
	blocking float64 // largest ξM among the lower-priority members
	wait     float64 // k̂wait
	wcrt     float64 // ξ̂ = WorstResponse(k̂wait)
	ok       bool    // ξ̂ ≤ ξd
	raised   int     // members whose blocking this member's join raised
}

// slotState is one TT slot being filled in priority order. Allocate
// feeds apps in SortByPriority order, so a joiner is always the slot's
// lowest-priority member: every member's higher-priority set, and with it
// its interference sums, is frozen when it joins. A later joiner can only
// raise a member's blocking, and only for the suffix of members whose
// blocking is below the joiner's ξM (blocking never increases along the
// priority order). So a candidate check evaluates the joiner from the
// running sums and re-evaluates that suffix, instead of re-analysing the
// whole slot.
//
// Every step repeats the float operations of MaxWait and AnalyzeSlot in
// the same order, so the outcomes are bit-identical to theirs; AnalyzeSlot
// stays the oracle the tests compare against.
type slotState struct {
	members []member
	sumXi   float64 // Σ ξM over members, added in priority order
	util    float64 // Σ ξM/r over members, added in priority order: SlotUtilization
}

// candidate returns app as a member ready to be offered to slots.
func candidate(app *App) member {
	return member{app: app, xiM: app.Model.MaxDwell()}
}

// eval computes m's wait, response and verdict from its blocking and
// higher-priority sums; hp lists the higher-priority members (the
// fixed-point iteration walks them). Over-utilisation (the sums'
// ErrOverUtilized) leaves an infinite wait and response and a miss. It
// reports m.ok.
//
//cpsdyn:allocfree runs once per candidate check and per newly blocked member
func (m *member) eval(hp []member, method Method) bool {
	m.wait, m.wcrt, m.ok = math.Inf(1), math.Inf(1), false
	if m.hpU >= 1 {
		return false
	}
	a := m.blocking
	aPrime := a + m.hpXi
	bound := aPrime / (1 - m.hpU)
	m.wait = bound
	if method != ClosedForm {
		// Eq. (5) from a′, as in MaxWait; the closed form is the fallback.
		k := aPrime
		for iter := 0; iter < 10000; iter++ {
			next := a
			for i := range hp {
				reqs := math.Ceil(k / hp[i].app.R)
				if reqs < 1 {
					reqs = 1
				}
				next += reqs * hp[i].xiM
			}
			if math.Abs(next-k) < 1e-12 {
				m.wait = next
				break
			}
			k = next
		}
	}
	m.wcrt = m.app.Model.WorstResponse(m.wait)
	m.ok = m.wcrt <= m.app.Deadline+1e-12
	return m.ok
}

// admits reports whether c can join the slot with every member, c
// included, still meeting its deadline — SlotSchedulable of the members
// plus c. It stops at the first miss and changes nothing.
//
//cpsdyn:allocfree the candidate check runs for every (app, slot) pair the policies try
func (s *slotState) admits(c member, method Method) bool {
	c.hpXi, c.hpU = s.sumXi, s.util
	if !c.eval(s.members, method) {
		return false
	}
	// The raised suffix, lowest priority first: the most interfered-with
	// member is the likeliest miss.
	for i := len(s.members) - 1; i >= 0 && s.members[i].blocking < c.xiM; i-- {
		m := s.members[i]
		m.blocking = c.xiM
		if !m.eval(s.members[:i], method) {
			return false
		}
	}
	return true
}

// join adds c as the slot's lowest-priority member and re-evaluates the
// members it blocks. A search that will take the join back passes a
// trail: join pushes the records it overwrites there, and leave pops them.
func (s *slotState) join(c member, method Method, trail *[]member) {
	c.hpXi, c.hpU = s.sumXi, s.util
	c.eval(s.members, method)
	lo := len(s.members) // members[lo:] have their blocking raised
	for lo > 0 && s.members[lo-1].blocking < c.xiM {
		lo--
	}
	if trail != nil {
		*trail = append(*trail, s.members[lo:]...)
	}
	for i := lo; i < len(s.members); i++ {
		s.members[i].blocking = c.xiM
		s.members[i].eval(s.members[:i], method)
	}
	c.raised = len(s.members) - lo
	s.members = append(s.members, c)
	s.sumXi += c.xiM
	s.util += c.xiM / c.app.R
}

// leave takes back the slot's latest join, which pushed onto trail last:
// the sums and the raised members get their recorded values back rather
// than being recomputed.
func (s *slotState) leave(trail *[]member) {
	last := s.members[len(s.members)-1]
	s.members = s.members[:len(s.members)-1]
	s.sumXi, s.util = last.hpXi, last.hpU
	k := len(*trail) - last.raised
	copy(s.members[len(s.members)-last.raised:], (*trail)[k:])
	*trail = (*trail)[:k]
}

// apps lists the slot's apps in priority order.
func (s *slotState) apps() []*App {
	out := make([]*App, len(s.members))
	for i := range s.members {
		out[i] = s.members[i].app
	}
	return out
}

// slotApps lists every slot's apps: the Allocation.Slots form.
func slotApps(slots []slotState) [][]*App {
	out := make([][]*App, len(slots))
	for i := range slots {
		out[i] = slots[i].apps()
	}
	return out
}
