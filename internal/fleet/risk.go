package fleet

import "math"

// QuarantineEvent records one quarantine transition during planning: a
// device being benched after crossing a failure threshold, or re-admitted
// after a successful probe.
type QuarantineEvent struct {
	// Device is the device index; Name its configured name.
	Device int
	Name   string
	// Time is the virtual time of the transition.
	Time float64
	// Reason explains the transition: "failures" for a bench,
	// "probe-succeeded" for a re-admission.
	Reason string
}

// Benched reports whether the event benched the device (as opposed to
// re-admitting it).
func (e QuarantineEvent) Benched() bool { return e.Reason != "probe-succeeded" }

// benchLocked quarantines device dev at virtual time t: it stops receiving
// regular work and will be re-probed with a single small batch every
// probeBackoff virtual seconds.
func (s *Scheduler) benchLocked(out *planOutcome, dev int, t float64) {
	st := &s.states[dev]
	st.quarantined = true
	st.quarantines++
	st.probeAt = t + probeBackoff
	out.events = append(out.events, QuarantineEvent{
		Device: dev, Name: s.devices[dev].Name, Time: t, Reason: "failures",
	})
}

// quarLocked snapshots the current per-device quarantine flags.
func (s *Scheduler) quarLocked() []bool {
	quar := make([]bool, len(s.states))
	for d := range s.states {
		quar[d] = s.states[d].quarantined
	}
	return quar
}

// Acting on a single tail excursion would make the risk policy jumpy — a
// benign 5%-tail device would be penalized hard right after every isolated
// event (the EWMA overshoots before it decays) and scheduling would diverge
// from the tail-blind baseline on noise rather than evidence. The tail caps
// and dispatch penalties therefore only engage on sustained evidence: at
// least tailMinEvents observed tail events and a learned probability of at
// least tailMinProb.
const (
	tailMinEvents = 3
	tailMinProb   = 0.1
)

// tailSignificant reports whether the device's tail evidence is sustained
// enough for the risk policy to act on.
func (st *devState) tailSignificant() bool {
	return st.tailSeen && st.tailCount >= tailMinEvents && st.tailProb >= tailMinProb && st.tailMag > 1
}

// riskCapLocked bounds device d's next batch size so its expected tail
// exposure stays bounded: with learned tail probability p and magnitude m, a
// batch of k jobs is expected to lose p·(m−1)·(queue + k·exec) virtual
// seconds to tail excursions, and the cap keeps that below tailBudget× the
// fleet's typical non-tail batch duration — so one tail-struck mega-batch
// cannot hold the run hostage, while devices with benign tails keep their
// full amortization.
func (s *Scheduler) riskCapLocked(d int) int {
	st := &s.states[d]
	if !st.tailSignificant() || !s.meanSeen || st.execEst <= 0 {
		return math.MaxInt
	}
	excess := st.tailProb * (st.tailMag - 1)
	budget := tailBudget * s.meanBatch
	k := (budget/excess - st.queueEst) / st.execEst
	if k < minBatch {
		return minBatch
	}
	if k > maxBatch {
		return maxBatch
	}
	return int(k)
}
