package sim

import "time"

// WaitQueue is a FIFO queue of parked processes — the simulation analogue of
// a kernel wait queue. Wake-ups can carry a delay, which models the cost of
// wake_up_process (scheduler latency, idle-state exit) without the waker
// having to block. The zero value is an empty queue, so owners embed it by
// value; it must not be copied once a process has parked on it. A process
// parks on at most one queue at a time, so the queue is a list linked
// through the processes themselves and parking allocates nothing.
type WaitQueue struct {
	head, tail *Proc
	n          int
}

// Len reports the number of parked processes.
func (q *WaitQueue) Len() int { return q.n }

// Wait parks p until a WakeOne or WakeAll releases it.
func (q *WaitQueue) Wait(p *Proc) {
	p.mustRun("Wait")
	q.wait(p, -1)
}

// WaitTimeout parks p until it is woken or until d elapses. It reports true
// if the process was woken and false if the wait timed out.
func (q *WaitQueue) WaitTimeout(p *Proc, d time.Duration) bool {
	p.mustRun("WaitTimeout")
	return q.wait(p, d)
}

func (q *WaitQueue) wait(p *Proc, d time.Duration) (woken bool) {
	if p.guard != nil {
		panic(p.guard)
	}
	if d >= 0 {
		p.timeoutSeq = p.sim.push(p.sim.now.Add(d), kindTimeout, p, nil)
	}
	p.queue, p.qprev = q, q.tail
	if q.tail != nil {
		q.tail.qnext = p
	} else {
		q.head = p
	}
	q.tail = p
	q.n++
	p.parked = parkQueue
	p.timedOut = false
	p.block()
	return !p.timedOut
}

// WakeOne releases the longest-waiting process, scheduling it to resume
// after delay. It returns the woken process, or nil if the queue was empty.
func (q *WaitQueue) WakeOne(delay time.Duration) *Proc {
	return q.WakeIndex(0, delay)
}

// WakeIndex releases the i-th parked process (0 = longest waiting),
// scheduling it to resume after delay. It returns the woken process, or nil
// if fewer than i+1 processes are parked. WakeOne and WakeAll are built on
// it; a wake policy that is not first-in-first-out (the stock futex order
// the paper's FIFO modification replaces) picks its index above the queue.
func (q *WaitQueue) WakeIndex(i int, delay time.Duration) *Proc {
	if i < 0 || i >= q.n {
		return nil
	}
	p := q.head
	for ; i > 0; i-- {
		p = p.qnext
	}
	q.unlink(p)
	p.sim.disown(&p.timeoutSeq, p.bg)
	p.makeRunnable(delay)
	return p
}

// WakeAll releases every parked process, each scheduled to resume after
// delay, in FIFO order. It reports how many processes were woken.
func (q *WaitQueue) WakeAll(delay time.Duration) int {
	n := q.n
	for q.n > 0 {
		q.WakeIndex(0, delay)
	}
	return n
}

// unlink takes p, which is parked on q, off the queue.
func (q *WaitQueue) unlink(p *Proc) {
	if p.qprev != nil {
		p.qprev.qnext = p.qnext
	} else {
		q.head = p.qnext
	}
	if p.qnext != nil {
		p.qnext.qprev = p.qprev
	} else {
		q.tail = p.qprev
	}
	p.queue, p.qprev, p.qnext = nil, nil, nil
	q.n--
}
