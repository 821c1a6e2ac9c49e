package registry

import (
	"runtime"
	"sync"
	"testing"
)

// TestFindVsReplaceByNameRace: one writer keeps re-registering the same
// name under alternating types — each replacement moves the instance from
// one by-type list to the other — while readers run discovery for both
// types; run with -race. Whatever the interleaving, a lookup sees
// instances of the type it asked for only, the moving instance at most
// once, and its stationary neighbour always.
func TestFindVsReplaceByNameRace(t *testing.T) {
	r := New()
	r.MustRegister(inst("still", "player"))
	r.MustRegister(inst("mover", "player"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, typ := range []string{"player", "recorder"} {
					var movers int
					var still bool
					for _, m := range r.refFind(specOf(typ)) {
						if m.Instance.Type != typ {
							t.Errorf("Find(%s) returned %s of type %s", typ, m.Instance.Name, m.Instance.Type)
						}
						switch m.Instance.Name {
						case "mover":
							movers++
						case "still":
							still = true
						}
					}
					if movers > 1 || still != (typ == "player") {
						t.Errorf("Find(%s): mover %d times, still %v", typ, movers, still)
					}
					r.Candidates(specOf(typ))
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		r.MustRegister(inst("mover", []string{"recorder", "player"}[i%2]))
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if got := names(r.refFind(specOf("player"))); len(got) != 2 {
		t.Errorf("players at the end = %v, want mover and still", got)
	}
	if got := r.refFind(specOf("recorder")); len(got) != 0 {
		t.Errorf("recorders at the end = %v, want none", names(got))
	}
}
