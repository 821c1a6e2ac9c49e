package eventbus

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubiqos/internal/metrics"
)

func recv(t *testing.T, sub *Subscription) Event {
	t.Helper()
	select {
	case ev, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription channel closed")
		}
		return ev
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for event")
		return Event{}
	}
}

// subscribers reads the bus's subscriber gauge.
func subscribers(r *metrics.Registry) float64 {
	v, _ := r.Gauge(metrics.BusSubscribers).Value()
	return v
}

// waitFor polls until the condition holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestPublishSubscribe(t *testing.T) {
	b := New()
	defer b.Close()
	sub, err := b.SubscribeLossless(TopicDeviceJoined, TopicDeviceLeft)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Publish(TopicDeviceJoined, "pda1"); n != 1 {
		t.Errorf("delivered = %d", n)
	}
	ev := recv(t, sub)
	if ev.Topic != TopicDeviceJoined || ev.Payload.(string) != "pda1" {
		t.Errorf("event = %+v", ev)
	}
	// Non-matching topic is not delivered.
	if n := b.Publish(TopicUserMoved, nil); n != 0 {
		t.Errorf("delivered = %d for unsubscribed topic", n)
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := New()
	defer b.Close()
	if _, err := b.SubscribeLossless(); err == nil {
		t.Error("no topics should fail")
	}
}

func TestMultipleSubscribers(t *testing.T) {
	b := New()
	defer b.Close()
	r := metrics.NewRegistry()
	b.Instrument(r)
	s1, _ := b.SubscribeLossless(TopicSessionStarted)
	s2, _ := b.SubscribeLossless(TopicSessionStarted)
	if n := b.Publish(TopicSessionStarted, 7); n != 2 {
		t.Errorf("delivered = %d", n)
	}
	if recv(t, s1).Payload.(int) != 7 || recv(t, s2).Payload.(int) != 7 {
		t.Error("payload mismatch")
	}
	if n := subscribers(r); n != 2 {
		t.Errorf("subscribers gauge = %v", n)
	}
}

func TestCancel(t *testing.T) {
	b := New()
	defer b.Close()
	r := metrics.NewRegistry()
	b.Instrument(r)
	sub, _ := b.SubscribeLossless(TopicUserMoved)
	sub.Cancel()
	sub.Cancel() // idempotent
	if n := subscribers(r); n != 0 {
		t.Errorf("subscribers gauge = %v after cancel", n)
	}
	if _, ok := <-sub.C(); ok {
		t.Error("channel should be closed after cancel")
	}
	if n := b.Publish(TopicUserMoved, nil); n != 0 {
		t.Errorf("delivered = %d after cancel", n)
	}
}

func TestClose(t *testing.T) {
	b := New()
	sub, _ := b.SubscribeLossless(TopicUserMoved)
	b.Close()
	b.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Error("channel should be closed after bus close")
	}
	if _, err := b.SubscribeLossless(TopicUserMoved); err == nil {
		t.Error("subscribe after close should fail")
	}
	if n := b.Publish(TopicUserMoved, nil); n != 0 {
		t.Errorf("publish after close delivered %d", n)
	}
	sub.Cancel() // must not panic after close
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New()
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := b.SubscribeLossless(TopicSessionStarted)
			if err != nil {
				t.Error(err)
				return
			}
			defer sub.Cancel()
			for j := 0; j < 50; j++ {
				b.Publish(TopicSessionStarted, j)
			}
			// Drain whatever arrived.
			for {
				select {
				case <-sub.C():
				default:
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPublishFanOutAccounting checks the fan-out invariant under
// concurrent publishers sharing the bus read lock: across subscribers,
// events received plus publishes coalesced into a pending duplicate equals
// every subscriber times the total published.
func TestPublishFanOutAccounting(t *testing.T) {
	b := New()
	r := metrics.NewRegistry()
	b.Instrument(r)
	const (
		subscribers = 6
		publishers  = 4
		perPub      = 200
	)
	var received atomic.Int64
	var drainers sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		sub, err := b.SubscribeLossless(TopicResourceChanged)
		if err != nil {
			t.Fatal(err)
		}
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			for range sub.C() {
				received.Add(1)
			}
		}()
	}

	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for j := 0; j < perPub; j++ {
				b.Publish(TopicResourceChanged, j)
			}
		}()
	}
	pubs.Wait()
	// Close discards what the pumps still hold, so wait for the drainers
	// to have everything first.
	const want = subscribers * publishers * perPub
	coalesced := r.Counter(metrics.EventsCoalesced).Value()
	waitFor(t, "every event delivered", func() bool { return received.Load()+coalesced == want })
	b.Close()
	drainers.Wait()
	if got := received.Load() + coalesced; got != want {
		t.Errorf("received %d + coalesced %d = %d, want %d", received.Load(), coalesced, got, want)
	}
	if got := r.Counter(metrics.EventsDelivered).Value(); got != received.Load() {
		t.Errorf("eventbus_delivered_total = %d, received %d", got, received.Load())
	}
}

// TestSubscribersConcurrentWithPublish hammers the read-path accessors
// while the subscription table churns; run with -race.
func TestSubscribersConcurrentWithPublish(t *testing.T) {
	b := New()
	defer b.Close()
	r := metrics.NewRegistry()
	b.Instrument(r)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Publish(TopicDeviceJoined, nil)
				subscribers(r)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		sub, err := b.SubscribeLossless(TopicDeviceJoined)
		if err != nil {
			t.Fatal(err)
		}
		sub.Cancel()
	}
	close(stop)
	wg.Wait()
}

func TestInstrument(t *testing.T) {
	b := New()
	r := metrics.NewRegistry()
	b.Instrument(r)
	if v := subscribers(r); v != 0 {
		t.Errorf("initial subscribers gauge = %v", v)
	}
	sub, err := b.SubscribeLossless(TopicDeviceJoined)
	if err != nil {
		t.Fatal(err)
	}
	if v := subscribers(r); v != 1 {
		t.Errorf("subscribers gauge = %v, want 1", v)
	}
	// Publish past the channel capacity without draining: every distinct
	// event is queued.
	const n = chanBuffer + 3
	for i := 0; i < n; i++ {
		b.Publish(TopicDeviceJoined, i)
	}
	b.Publish(TopicDeviceLeft, nil) // no subscriber: published, zero fan-out
	if got := r.Counter(metrics.EventsPublished).Value(); got != n+1 {
		t.Errorf("published = %d", got)
	}
	if got := r.Counter(metrics.EventsDelivered).Value(); got != n {
		t.Errorf("delivered = %d", got)
	}
	if got := r.Counter(metrics.EventsCoalesced).Value(); got != 0 {
		t.Errorf("coalesced = %d", got)
	}
	if v, _ := r.Gauge(metrics.BusQueueDepth).Value(); v > n {
		t.Errorf("queue depth gauge = %v, more than the %d published", v, n)
	}
	for i := 0; i < n; i++ {
		recv(t, sub)
	}
	b.Publish(TopicDeviceLeft, nil)
	if v, _ := r.Gauge(metrics.BusQueueDepth).Value(); v != 0 {
		t.Errorf("queue depth gauge = %v with every event received", v)
	}
	sub.Cancel()
	if v := subscribers(r); v != 0 {
		t.Errorf("subscribers gauge after cancel = %v", v)
	}
	// Uninstrumented publishing still works.
	b.Instrument(nil)
	b.Publish(TopicDeviceJoined, nil)
	b.Close()
}

func TestLosslessNoDropsUnderStorm(t *testing.T) {
	b := New()
	defer b.Close()
	sub, err := b.SubscribeLossless(TopicDeviceLeft)
	if err != nil {
		t.Fatal(err)
	}
	// Publish far past the channel capacity before draining anything.
	const storm = 50 * chanBuffer
	for i := 0; i < storm; i++ {
		b.Publish(TopicDeviceLeft, i) // distinct payloads: nothing coalesces
	}
	for i := 0; i < storm; i++ {
		ev := recv(t, sub)
		if ev.Payload.(int) != i {
			t.Fatalf("event %d arrived out of order: payload %v", i, ev.Payload)
		}
	}
	sub.Cancel()
}

func TestLosslessCoalescesDuplicates(t *testing.T) {
	b := New()
	defer b.Close()
	r := metrics.NewRegistry()
	b.Instrument(r)
	sub, err := b.SubscribeLossless(TopicDeviceLeft, TopicResourceChanged)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing drains while publishing, so duplicates meet their pending
	// copy in the pump's queue and coalesce.
	const dups = 200
	for i := 0; i < dups; i++ {
		b.Publish(TopicDeviceLeft, "pda1")
	}
	b.Publish(TopicResourceChanged, "pda1") // distinct topic survives
	// Exactly one device.left must arrive (plus the resource.changed):
	// drain until the resource event and count.
	seen := 0
	for {
		ev := recv(t, sub)
		if ev.Topic == TopicResourceChanged {
			break
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("coalescing lost the event entirely")
	}
	if coalesced := r.Counter(metrics.EventsCoalesced).Value(); int64(seen)+coalesced != dups {
		t.Fatalf("delivered %d + coalesced %d != published %d", seen, coalesced, dups)
	}
	sub.Cancel()
}

func TestLosslessConcurrentStorm(t *testing.T) {
	b := New()
	defer b.Close()
	r := metrics.NewRegistry()
	b.Instrument(r)
	sub, err := b.SubscribeLossless(TopicDeviceLeft)
	if err != nil {
		t.Fatal(err)
	}
	const publishers, per = 8, 250
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(TopicDeviceLeft, [2]int{p, i})
			}
		}(p)
	}
	got := 0
	first := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C() {
			if got++; got == 1 {
				close(first)
			}
		}
	}()
	wg.Wait()
	// Cancel discards what the pump still holds, so the drainer must have
	// received before it: on a loaded box the publishers can finish before
	// the pump or the drainer first runs.
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("no events delivered")
	}
	sub.Cancel()
	<-done
	// Every publish was either queued or merged into a still-pending
	// duplicate: nothing is refused.
	delivered := r.Counter(metrics.EventsDelivered).Value()
	coalesced := r.Counter(metrics.EventsCoalesced).Value()
	if delivered+coalesced != publishers*per {
		t.Fatalf("delivered %d + coalesced %d != published %d", delivered, coalesced, publishers*per)
	}
}

func TestLosslessCancelUnblocksPump(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.SubscribeLossless(TopicDeviceLeft)
	for i := 0; i < 10*chanBuffer; i++ {
		b.Publish(TopicDeviceLeft, i)
	}
	// Nobody drains; Cancel must still return promptly and close the
	// channel (the pump may be blocked mid-send).
	doneCh := make(chan struct{})
	go func() {
		sub.Cancel()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("Cancel blocked on a wedged pump")
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-sub.C():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("channel never closed after Cancel")
		}
	}
}

// TestRecorderSeesEveryPublishFirst: the recorder is handed each event on
// the publisher's goroutine before any subscriber can receive it, and each
// of a run of identical events.
func TestRecorderSeesEveryPublishFirst(t *testing.T) {
	b := New()
	defer b.Close()
	sub, err := b.SubscribeLossless(TopicResourceChanged)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []Event
	b.SetRecorder(func(ev Event) {
		if got := sub.Pending(); got > len(recorded) {
			t.Errorf("recording event %d: the subscriber holds %d", len(recorded), got)
		}
		recorded = append(recorded, ev)
	})
	for i := 0; i < chanBuffer; i++ {
		b.Publish(TopicResourceChanged, "pda1")
	}
	if len(recorded) != chanBuffer {
		t.Fatalf("recorder saw %d of %d identical publishes", len(recorded), chanBuffer)
	}
	for _, ev := range recorded {
		if ev.Topic != TopicResourceChanged || ev.Payload != "pda1" || ev.Time.IsZero() {
			t.Fatalf("recorded event = %+v", ev)
		}
	}
	b.SetRecorder(nil)
	b.Publish(TopicResourceChanged, "pda1")
	if len(recorded) != chanBuffer {
		t.Fatal("a detached recorder still sees publishes")
	}
}
