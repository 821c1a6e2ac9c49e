package runtime

import (
	"math"
	"time"
)

// clock is the session's one source of time, read as a duration since an
// epoch the clock chooses.
type clock interface {
	now() time.Duration
	// sleep returns d later; Play waits out the playback on it.
	sleep(d time.Duration)
	// wait returns true once now() ≥ until, or false as soon as quit is
	// closed. The loop passes every event through it, so it is also where
	// a stop is noticed between two events that are both already due.
	wait(until time.Duration, quit <-chan struct{}) bool
}

// wallClock is real time: time.Now and one timer, reused.
type wallClock struct {
	epoch time.Time
	timer *time.Timer
}

func newWallClock() clock {
	return &wallClock{epoch: time.Now(), timer: time.NewTimer(math.MaxInt64)}
}

func (c *wallClock) now() time.Duration { return time.Since(c.epoch) }

func (c *wallClock) sleep(d time.Duration) { time.Sleep(d) }

func (c *wallClock) wait(until time.Duration, quit <-chan struct{}) bool {
	if d := until - c.now(); d > 0 {
		c.timer.Reset(d) // it has never fired, or the last wait drained it
		select {
		case <-quit:
		case <-c.timer.C:
			return true
		}
	}
	select {
	case <-quit:
		c.timer.Stop()
		return false
	default:
		return true
	}
}

// loop is the session's only goroutine: it runs the queued events in time
// order, each when the clock reaches it, until Stop closes quit; with
// nothing queued (maxFrames emitted and delivered) it waits for that alone.
func (s *Session) loop() {
	defer s.wg.Done()
	for {
		until := time.Duration(math.MaxInt64)
		if at, ok := s.q.Next(); ok {
			until = time.Duration(at)
		}
		if !s.clk.wait(until, s.quit) {
			return
		}
		s.q.Step()
	}
}

// sourceTick emits the source's next frame and, unless that was the last
// of maxFrames, schedules the next tick one interval after this one was
// due: a tick run late does not shift the cadence.
func (s *Session) sourceTick(c *component) {
	s.forward(c, Frame{Seq: c.seq, Origin: c.id})
	if c.seq++; s.maxFrames <= 0 || c.seq-s.start < s.maxFrames {
		s.q.MustSchedule(s.q.Now()+c.interval, func() { s.sourceTick(c) })
	}
}

// forward sends the frame, in c's output format if it declares one, down
// every outgoing edge, to be delivered after the edge's latency: a frame
// crossing devices is in flight that long without holding up anything
// else. A full edge drops it.
func (s *Session) forward(c *component, f Frame) {
	if c.format != "" {
		f.Format = c.format
	}
	for i := c.outFirst; i < c.outEnd; i++ {
		e := &s.edges[i]
		if e.inflight == chanBuffer {
			s.dropped.Add(1)
			continue
		}
		e.inflight++
		s.q.MustSchedule(s.q.Now()+e.latency, func() { s.deliver(e, f) })
	}
}

// deliver hands a frame that has crossed edge e to the component at its
// head.
func (s *Session) deliver(e *edge, f Frame) {
	e.inflight--
	switch c := &s.comps[e.to]; c.role {
	case roleSink:
		s.recordArrival(c.id, s.comps[e.from].id, f)
	case roleBuffer:
		// The buffer emits on the cadence points k×interval of the
		// session's clock, so a too-fast or jittery producer is paced down
		// to a smooth stream; with nothing queued it schedules no ticks,
		// and rejoins the cadence at the next point.
		if len(c.queue) == 0 {
			s.q.MustSchedule(math.Max(math.Ceil(s.q.Now()/c.interval), 1)*c.interval, func() { s.bufferTick(c) })
		} else if len(c.queue) == bufferQueueCap {
			c.queue = c.queue[1:]
			s.dropped.Add(1)
		}
		c.queue = append(c.queue, f)
	case rolePacer:
		if now := float64(s.clk.now()); now-c.lastEmit >= c.interval {
			c.lastEmit = now
			s.forward(c, f)
		}
	default:
		s.forward(c, f)
	}
}

// bufferQueueCap bounds a buffer's backlog; the oldest frames are dropped
// under overload (live media favors freshness).
const bufferQueueCap = 32

// bufferTick emits the oldest queued frame and, while frames remain,
// schedules the next cadence point.
func (s *Session) bufferTick(c *component) {
	f := c.queue[0]
	if c.queue = c.queue[1:]; len(c.queue) > 0 {
		s.q.MustSchedule(s.q.Now()+c.interval, func() { s.bufferTick(c) })
	}
	s.forward(c, f)
}
