package sim

// Cond is a condition variable in virtual time. Unlike sync.Cond it needs no
// external mutex: simulation state is never accessed concurrently, so the
// usual lost-wakeup race cannot occur as long as callers re-check their
// predicate in a loop around Wait.
type Cond struct {
	sim  *Simulation
	name string
	// waiters[qhead:] are the live and already-claimed waiters in arrival
	// order, held by value: steady-state Wait/Signal cycles touch only the
	// slice's reclaimed backing array and never allocate. A claimed entry
	// (woken or timed out) has id 0 and is skipped when popped.
	waiters []condWaiter
	qhead   int
	// nextID issues claim tickets for timeout events; 0 is never issued.
	nextID uint64
	// reason and reasonT are the precomputed blocked-on labels ("cond x",
	// "cond(timeout) x") so Wait does not concatenate strings per block.
	reason, reasonT string
}

type condWaiter struct {
	p  *Proc
	id uint64 // claim ticket; 0 once a Signal/Broadcast or timeout claims it
}

// NewCond returns a condition variable with a diagnostic name used in
// deadlock reports.
func (s *Simulation) NewCond(name string) *Cond {
	return &Cond{sim: s, name: name, reason: "cond " + name, reasonT: "cond(timeout) " + name}
}

// push appends a live waiter and returns its claim ticket.
func (c *Cond) push(p *Proc) uint64 {
	c.nextID++
	c.waiters = append(c.waiters, condWaiter{p: p, id: c.nextID})
	return c.nextID
}

// Wait suspends p until Signal or Broadcast wakes it. Callers must re-check
// their predicate after Wait returns.
func (c *Cond) Wait(p *Proc) {
	c.push(p)
	p.timedOut = false
	p.block(c.reason)
}

// WaitTimeout is Wait with a virtual-time timeout. It returns false if the
// wait timed out before a Signal/Broadcast reached this waiter. The
// deadline is an event whose handler is the Cond itself and whose argument
// is the claim ticket; if the waiter was claimed first it pops as a no-op.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	id := c.push(p)
	p.timedOut = false
	c.sim.Schedule(c.sim.now.Add(d), (*condTimeout)(c), id)
	p.block(c.reasonT)
	return !p.timedOut
}

// condTimeout is a Cond seen as the handler of its waiters' deadlines.
type condTimeout Cond

// Fire expires the waiter holding ticket id, if it is still waiting.
func (t *condTimeout) Fire(id uint64) {
	c := (*Cond)(t)
	for i := c.qhead; i < len(c.waiters); i++ {
		if w := &c.waiters[i]; w.id == id {
			p := w.p
			w.p, w.id = nil, 0
			p.timedOut = true
			c.sim.ready(p)
			return
		}
	}
}

// pop removes and returns the head entry, reclaiming the drained prefix
// when the queue empties so steady-state signalling never reallocates.
func (c *Cond) pop() condWaiter {
	w := c.waiters[c.qhead]
	c.waiters[c.qhead] = condWaiter{}
	c.qhead++
	if c.qhead == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.qhead = 0
	}
	return w
}

// Signal wakes the longest-waiting waiter, if any.
func (c *Cond) Signal() {
	for c.qhead < len(c.waiters) {
		w := c.pop()
		if w.id == 0 {
			continue // already claimed by a timeout
		}
		c.sim.ready(w.p)
		return
	}
}

// Broadcast wakes every current waiter in FIFO order.
func (c *Cond) Broadcast() {
	for c.qhead < len(c.waiters) {
		if w := c.pop(); w.id != 0 {
			c.sim.ready(w.p)
		}
	}
}

// Mutex is a FIFO-fair mutual-exclusion lock in virtual time. Acquiring an
// uncontended Mutex costs no virtual time; contended acquisitions queue in
// arrival order, which models a ticket lock guarding a shared resource such
// as a Queue Pair's doorbell.
type Mutex struct {
	sim    *Simulation
	name   string
	reason string // precomputed "mutex <name>" blocked-on label
	owner  *Proc
	// queue[qhead:] are the waiters in arrival order; the drained prefix is
	// reclaimed when the queue empties so steady-state handoff never
	// reallocates.
	queue []*Proc
	qhead int
}

// NewMutex returns a FIFO mutex with a diagnostic name.
func (s *Simulation) NewMutex(name string) *Mutex {
	return &Mutex{sim: s, name: name, reason: "mutex " + name}
}

// Lock acquires the mutex, blocking p in FIFO order if it is held.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by " + p.name)
	}
	m.queue = append(m.queue, p)
	p.block(m.reason)
}

// Unlock releases the mutex and hands it to the next queued Proc, if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.name)
	}
	if m.qhead == len(m.queue) {
		m.owner = nil
		return
	}
	next := m.queue[m.qhead]
	m.queue[m.qhead] = nil
	m.qhead++
	if m.qhead == len(m.queue) {
		m.queue = m.queue[:0]
		m.qhead = 0
	}
	m.owner = next
	m.sim.ready(next)
}

// Waiters returns the number of Procs queued behind the current owner.
func (m *Mutex) Waiters() int { return len(m.queue) - m.qhead }
