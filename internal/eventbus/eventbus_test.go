package eventbus

import (
	"sync"
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

func TestPublishSubscribe(t *testing.T) {
	b := New()
	defer b.Close()
	sub, err := b.Subscribe(TopicDeviceJoined, TopicDeviceLeft)
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
	if _, err := b.Subscribe(); err == nil {
		t.Error("no topics should fail")
	}
}

func TestMultipleSubscribers(t *testing.T) {
	b := New()
	defer b.Close()
	s1, _ := b.Subscribe(TopicSessionStarted)
	s2, _ := b.Subscribe(TopicSessionStarted)
	if n := b.Publish(TopicSessionStarted, 7); n != 2 {
		t.Errorf("delivered = %d", n)
	}
	if recv(t, s1).Payload.(int) != 7 || recv(t, s2).Payload.(int) != 7 {
		t.Error("payload mismatch")
	}
	if b.Subscribers() != 2 {
		t.Errorf("Subscribers = %d", b.Subscribers())
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(TopicResourceChanged)
	for i := 0; i < DefaultBuffer+5; i++ {
		b.Publish(TopicResourceChanged, i)
	}
	if got := sub.Dropped(); got != 5 {
		t.Errorf("Dropped = %d, want 5", got)
	}
	// The buffered events are still readable in order.
	for i := 0; i < DefaultBuffer; i++ {
		if ev := recv(t, sub); ev.Payload.(int) != i {
			t.Fatalf("event %d payload = %v", i, ev.Payload)
		}
	}
}

func TestCancel(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.Subscribe(TopicUserMoved)
	sub.Cancel()
	sub.Cancel() // idempotent
	if b.Subscribers() != 0 {
		t.Errorf("Subscribers = %d after cancel", b.Subscribers())
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
	sub, _ := b.Subscribe(TopicUserMoved)
	b.Close()
	b.Close() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Error("channel should be closed after bus close")
	}
	if _, err := b.Subscribe(TopicUserMoved); err == nil {
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
			sub, err := b.Subscribe(TopicSessionStarted)
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
// concurrent publishers sharing the bus read lock: for every subscriber,
// events received plus events dropped equals the total published.
func TestPublishFanOutAccounting(t *testing.T) {
	b := New()
	const (
		subscribers = 6
		publishers  = 4
		perPub      = 200
	)
	subs := make([]*Subscription, subscribers)
	received := make([]int, subscribers)
	var drainers sync.WaitGroup
	for i := range subs {
		sub, err := b.Subscribe(TopicResourceChanged)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
		drainers.Add(1)
		go func(i int) {
			defer drainers.Done()
			for range subs[i].C() {
				received[i]++
			}
		}(i)
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
	b.Close()
	drainers.Wait()

	for i, sub := range subs {
		if got := received[i] + sub.Dropped(); got != publishers*perPub {
			t.Errorf("subscriber %d: received %d + dropped %d = %d, want %d",
				i, received[i], sub.Dropped(), got, publishers*perPub)
		}
	}
}

// TestSubscribersConcurrentWithPublish hammers the read-path accessors
// while the subscription table churns; run with -race.
func TestSubscribersConcurrentWithPublish(t *testing.T) {
	b := New()
	defer b.Close()
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
				b.Subscribers()
			}
		}
	}()
	for i := 0; i < 40; i++ {
		sub, err := b.Subscribe(TopicDeviceJoined)
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
	if v, _ := r.Gauge(metrics.BusSubscribers).Value(); v != 0 {
		t.Errorf("initial subscribers gauge = %v", v)
	}
	sub, err := b.Subscribe(TopicDeviceJoined)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Gauge(metrics.BusSubscribers).Value(); v != 1 {
		t.Errorf("subscribers gauge = %v, want 1", v)
	}
	// Fill the subscriber's buffer without draining: DefaultBuffer events
	// deliver, the rest drop.
	for i := 0; i < DefaultBuffer+3; i++ {
		b.Publish(TopicDeviceJoined, i)
	}
	b.Publish(TopicDeviceLeft, nil) // no subscriber: published, zero fan-out
	if got := r.Counter(metrics.EventsPublished).Value(); got != int64(DefaultBuffer+4) {
		t.Errorf("published = %d", got)
	}
	if got := r.Counter(metrics.EventsDelivered).Value(); got != int64(DefaultBuffer) {
		t.Errorf("delivered = %d", got)
	}
	if got := r.Counter(metrics.EventsDropped).Value(); got != 3 {
		t.Errorf("dropped = %d", got)
	}
	if v, _ := r.Gauge(metrics.BusQueueDepth).Value(); v != float64(DefaultBuffer) {
		t.Errorf("queue depth gauge = %v, want %d", v, DefaultBuffer)
	}
	sub.Cancel()
	if v, _ := r.Gauge(metrics.BusSubscribers).Value(); v != 0 {
		t.Errorf("subscribers gauge after cancel = %v", v)
	}
	if v, _ := r.Gauge(metrics.BusQueueDepth).Value(); v != 0 {
		t.Errorf("queue depth after cancel = %v", v)
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
	// Publish far past the channel capacity before draining anything: a
	// lossy subscription would drop most of these.
	const storm = 50 * DefaultBuffer
	for i := 0; i < storm; i++ {
		b.Publish(TopicDeviceLeft, i) // distinct payloads: nothing coalesces
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("lossless subscription dropped %d events", d)
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
	sub, err := b.SubscribeLossless(TopicDeviceLeft, TopicResourceChanged)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the channel so subsequent publishes stay pending in the
	// overflow queue, where duplicates coalesce.
	block, _ := b.SubscribeLossless(TopicDeviceLeft) // unused drain
	defer block.Cancel()
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
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d", sub.Dropped())
	}
	if seen+sub.Coalesced() != dups {
		t.Fatalf("delivered %d + coalesced %d != published %d", seen, sub.Coalesced(), dups)
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
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("dropped %d events under concurrent storm", d)
	}
	// Every publish was either delivered or merged into a still-pending
	// duplicate; with distinct payloads and an active drainer, deliveries
	// dominate. The invariant is no loss: delivered + coalesced + the few
	// still in flight at Cancel account for all publishes.
	if v := r.Counter(metrics.EventsDropped).Value(); v != 0 {
		t.Fatalf("eventbus_dropped_total = %d", v)
	}
}

func TestLosslessCancelUnblocksPump(t *testing.T) {
	b := New()
	defer b.Close()
	sub, _ := b.SubscribeLossless(TopicDeviceLeft)
	for i := 0; i < 10*DefaultBuffer; i++ {
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
	sub, err := b.Subscribe(TopicResourceChanged)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []Event
	b.SetRecorder(func(ev Event) {
		if got := len(sub.C()); got != len(recorded) {
			t.Errorf("recording event %d: the subscriber holds %d", len(recorded), got)
		}
		recorded = append(recorded, ev)
	})
	for i := 0; i < DefaultBuffer; i++ {
		b.Publish(TopicResourceChanged, "pda1")
	}
	if len(recorded) != DefaultBuffer {
		t.Fatalf("recorder saw %d of %d identical publishes", len(recorded), DefaultBuffer)
	}
	for _, ev := range recorded {
		if ev.Topic != TopicResourceChanged || ev.Payload != "pda1" || ev.Time.IsZero() {
			t.Fatalf("recorded event = %+v", ev)
		}
	}
	b.SetRecorder(nil)
	b.Publish(TopicResourceChanged, "pda1")
	if len(recorded) != DefaultBuffer {
		t.Fatal("a detached recorder still sees publishes")
	}
}
