// Package eventbus implements the domain event service the configuration
// model cooperates with (paper §1): a topic-based publish/subscribe bus
// over which the smart space signals the runtime changes — user mobility,
// device switches, device joins/leaves, resource fluctuations — that
// trigger dynamic re-configuration.
//
// There is one delivery mode, and it never drops an event: every
// consumer of the domain's bus must see every change it subscribed to.
// Publish queues the event for each matching subscription and returns; a
// pump goroutine per subscription moves the queue onto the receive
// channel, so delivery is always asynchronous and a slow consumer delays
// its own events instead of losing them. A publish identical (topic and
// payload) to an event still queued for a subscriber is merged into it.
package eventbus

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"ubiqos/internal/metrics"
)

// Topic classifies an event.
type Topic string

// The event topics used by the domain.
const (
	// TopicUserMoved fires when the user moves to a new location.
	TopicUserMoved Topic = "user.moved"
	// TopicDeviceSwitched fires when the user switches the portal device
	// (e.g. from PC to PDA).
	TopicDeviceSwitched Topic = "device.switched"
	// TopicDeviceJoined fires when a device joins the smart space.
	TopicDeviceJoined Topic = "device.joined"
	// TopicDeviceLeft fires when a device leaves or crashes.
	TopicDeviceLeft Topic = "device.left"
	// TopicResourceChanged fires on significant resource fluctuations.
	TopicResourceChanged Topic = "resource.changed"
	// TopicSessionStarted and TopicSessionStopped track application
	// sessions.
	TopicSessionStarted Topic = "session.started"
	TopicSessionStopped Topic = "session.stopped"
	// TopicSessionRecovered fires when the recovery supervisor brings a
	// session back after a fault (payload: session ID).
	TopicSessionRecovered Topic = "session.recovered"
	// TopicSessionRestored fires when a later full-QoS reconfiguration
	// restores a session that had previously been recovered degraded
	// (payload: session ID).
	TopicSessionRestored Topic = "session.restored"
	// TopicUserNotification carries messages the user must act on — e.g.
	// a mandatory service could not be discovered and the user may
	// "download and install an instance for the missing service into the
	// current environment, or simply quit the application" (paper §3.2).
	TopicUserNotification Topic = "user.notification"
)

// Event is one published occurrence.
type Event struct {
	Topic Topic
	// Time is the publication timestamp.
	Time time.Time
	// Payload carries topic-specific data (e.g. the device ID).
	Payload any
}

// Subscription receives events for the topics it was subscribed to, in
// publish order among distinct events.
type Subscription struct {
	bus    *Bus
	id     int
	topics map[Topic]bool
	ch     chan Event
	// wake nudges the pump goroutine; done is closed on cancel so a pump
	// blocked on a slow receiver can exit.
	wake chan struct{}
	done chan struct{}

	mu     sync.Mutex
	closed bool
	// queue holds the events the pump has not yet handed to the channel;
	// keys indexes them by (topic, payload) so a re-published identical
	// event refreshes its queued slot instead of growing the queue
	// without bound.
	queue []Event
	keys  map[any]int
}

// C returns the receive channel. The channel is closed when the
// subscription is cancelled or the bus is closed.
func (s *Subscription) C() <-chan Event { return s.ch }

// Pending reports how many delivered-but-unconsumed events the
// subscription holds (channel backlog plus the pump's queue). A zero
// return is momentary, not a fence: an event may be mid-handoff inside
// the pump.
func (s *Subscription) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ch) + len(s.queue)
}

// Cancel removes the subscription from the bus and closes the channel.
// Cancel is idempotent.
func (s *Subscription) Cancel() {
	s.bus.cancel(s)
}

// Bus is the event service. All methods are safe for concurrent use.
//
// Publishing is the hot path: concurrent publishers share a read lock
// over the subscription table, so fan-outs do not serialize against each
// other. SubscribeLossless, Cancel, and Close take the write lock.
type Bus struct {
	mu     sync.RWMutex
	nextID int
	subs   map[int]*Subscription
	closed bool
	// reg, when set via Instrument, receives publish fan-out counters and
	// subscriber/queue-depth gauges.
	reg *metrics.Registry
	// record, when set via SetRecorder, is handed every published event.
	record atomic.Pointer[func(Event)]
}

// New returns an open event bus.
func New() *Bus {
	return &Bus{subs: make(map[int]*Subscription)}
}

// Instrument attaches a metrics registry: every Publish updates the
// eventbus_published/delivered/coalesced counters and the subscriber and
// queue-depth gauges; SubscribeLossless/Cancel/Close keep the subscriber
// gauge current. Pass nil to detach.
func (b *Bus) Instrument(r *metrics.Registry) {
	b.mu.Lock()
	b.reg = r
	if r != nil {
		r.Gauge(metrics.BusSubscribers).Set(float64(len(b.subs)))
	}
	b.mu.Unlock()
}

// SetRecorder attaches a function every Publish hands its event to
// first: on the publisher's goroutine, outside the bus's lock, before any
// subscriber sees the event. A caller that sees Publish return sees the
// event recorded, and identical events are each recorded. Pass nil to
// detach.
func (b *Bus) SetRecorder(fn func(Event)) { b.record.Store(&fn) }

// gauges refreshes the subscriber and queue-depth gauges; callers must
// hold b.mu (read or write — gauge values are internally synchronized).
func (b *Bus) gauges() {
	if b.reg == nil {
		return
	}
	depth := 0
	for _, sub := range b.subs {
		depth += sub.Pending()
	}
	b.reg.Gauge(metrics.BusSubscribers).Set(float64(len(b.subs)))
	b.reg.Gauge(metrics.BusQueueDepth).Set(float64(depth))
}

// chanBuffer is the capacity of a subscription's receive channel; events
// past it wait in the pump's queue.
const chanBuffer = 16

// SubscribeLossless registers interest in the given topics (at least
// one). The subscription never drops an event: publishes queue into an
// unbounded coalescing buffer (identical pending topic+payload pairs are
// merged) drained by a background pump, so a slow consumer delays
// delivery instead of losing it. FIFO order is preserved among distinct
// events.
func (b *Bus) SubscribeLossless(topics ...Topic) (*Subscription, error) {
	if len(topics) == 0 {
		return nil, fmt.Errorf("eventbus: subscribe with no topics")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("eventbus: bus closed")
	}
	ts := make(map[Topic]bool, len(topics))
	for _, t := range topics {
		ts[t] = true
	}
	sub := &Subscription{
		bus:    b,
		id:     b.nextID,
		topics: ts,
		ch:     make(chan Event, chanBuffer),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		keys:   make(map[any]int),
	}
	go sub.pump()
	b.subs[b.nextID] = sub
	b.nextID++
	b.gauges()
	return sub, nil
}

// coalesceKey builds the pending-queue identity of an event; events with
// non-comparable payloads are never coalesced.
func coalesceKey(ev Event) (any, bool) {
	if ev.Payload == nil {
		return [2]any{ev.Topic, nil}, true
	}
	if !reflect.TypeOf(ev.Payload).Comparable() {
		return nil, false
	}
	return [2]any{ev.Topic, ev.Payload}, true
}

// enqueue appends an event to the subscription's queue, merging it into
// an identical pending event when possible, and nudges the pump. It
// reports whether the event was newly queued (false = coalesced into an
// existing slot, or the subscription is closed).
func (s *Subscription) enqueue(ev Event) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	fresh := true
	if k, ok := coalesceKey(ev); ok {
		if i, dup := s.keys[k]; dup {
			s.queue[i].Time = ev.Time
			fresh = false
		} else {
			s.keys[k] = len(s.queue)
			s.queue = append(s.queue, ev)
		}
	} else {
		s.queue = append(s.queue, ev)
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return fresh
}

// pump is the delivery goroutine of a subscription: it moves queued
// events onto the receive channel in order, blocking on a slow receiver
// rather than dropping, and closes the channel once the subscription is
// cancelled. The pump is the channel's only sender, which is what makes
// closing it here safe.
func (s *Subscription) pump() {
	defer close(s.ch)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.mu.Unlock()
			select {
			case <-s.wake:
			case <-s.done:
			}
			s.mu.Lock()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		batch := s.queue
		s.queue = nil
		s.keys = make(map[any]int)
		s.mu.Unlock()
		for _, ev := range batch {
			select {
			case s.ch <- ev:
			case <-s.done:
				return
			}
		}
	}
}

// Publish hands the event to the recorder (see SetRecorder), then queues
// it for every matching subscriber's pump without blocking. It returns
// the number of subscribers that will see the event: those it was newly
// queued for plus those whose identical pending event it merged into.
func (b *Bus) Publish(topic Topic, payload any) int {
	ev := Event{Topic: topic, Time: time.Now(), Payload: payload}
	if record := b.record.Load(); record != nil && *record != nil {
		(*record)(ev)
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return 0
	}
	delivered, coalesced := 0, 0
	for _, sub := range b.subs {
		if !sub.topics[topic] {
			continue
		}
		if sub.enqueue(ev) {
			delivered++
		} else {
			coalesced++
		}
	}
	if b.reg != nil {
		b.reg.Counter(metrics.EventsPublished).Inc()
		b.reg.Counter(metrics.EventsDelivered).Add(int64(delivered))
		b.reg.Counter(metrics.EventsCoalesced).Add(int64(coalesced))
		b.gauges()
	}
	return delivered + coalesced
}

// Close shuts the bus down, closing all subscriber channels. Close is
// idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		if sub.markClosed() {
			close(sub.done)
			delete(b.subs, id)
		}
	}
	b.gauges()
}

// markClosed flags the subscription closed, reporting whether this call
// was the one that closed it.
func (s *Subscription) markClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	return true
}

// cancel tells the subscription's pump to exit; the pump closes the
// channel itself, since it may be mid-send.
func (b *Bus) cancel(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !s.markClosed() {
		return // cancelled before, or closed with the bus
	}
	delete(b.subs, s.id)
	close(s.done)
	b.gauges()
}
