package device

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ubiqos/internal/resource"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("", ClassPDA, resource.MB(32, 40), nil); err == nil {
		t.Error("empty ID should fail")
	}
	if _, err := New("pda", ClassPDA, resource.Vector{-1, 0}, nil); err == nil {
		t.Error("invalid capacity should fail")
	}
	d, err := New("pda", ClassPDA, resource.MB(32, 40), map[string]string{"screen": "small"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Attrs["screen"] != "small" {
		t.Error("attrs lost")
	}
}

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{ClassDesktop, "desktop"}, {ClassLaptop, "laptop"}, {ClassPDA, "pda"},
		{ClassWorkstation, "workstation"}, {ClassGateway, "gateway"}, {ClassServer, "server"},
		{Class(0), "Class(0)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestDefaultSpeedRatio(t *testing.T) {
	if ClassLaptop.DefaultSpeedRatio() != 1 {
		t.Error("laptop is the benchmark machine")
	}
	if ClassPDA.DefaultSpeedRatio() >= 1 {
		t.Error("PDA must be slower than benchmark")
	}
	if ClassDesktop.DefaultSpeedRatio() <= 1 {
		t.Error("desktop must be faster than benchmark")
	}
	if Class(0).DefaultSpeedRatio() != 1 {
		t.Error("unknown class defaults to 1")
	}
}

func TestAdmitRelease(t *testing.T) {
	d := MustNew("pc", ClassDesktop, resource.MB(256, 300), nil)
	if err := d.Admit(resource.MB(200, 100)); err != nil {
		t.Fatal(err)
	}
	if got := d.Available(); !got.Equal(resource.MB(56, 200)) {
		t.Errorf("Available = %v", got)
	}
	if err := d.Admit(resource.MB(100, 10)); err == nil {
		t.Error("over-admission should fail")
	}
	// Failed admission must not change availability.
	if got := d.Available(); !got.Equal(resource.MB(56, 200)) {
		t.Errorf("Available after failed admit = %v", got)
	}
	d.Release(resource.MB(200, 100))
	if got := d.Available(); !got.Equal(resource.MB(256, 300)) {
		t.Errorf("Available after release = %v", got)
	}
	// Release clamps at capacity.
	d.Release(resource.MB(1000, 1000))
	if got := d.Available(); !got.Equal(d.Capacity()) {
		t.Errorf("Available after over-release = %v", got)
	}
	// Dimension mismatches are rejected / ignored.
	if err := d.Admit(resource.Vector{1}); err == nil {
		t.Error("dimension mismatch should fail")
	}
	d.Release(resource.Vector{1}) // must not panic
}

func TestAdmitWhenDown(t *testing.T) {
	d := MustNew("pc", ClassDesktop, resource.MB(256, 300), nil)
	d.SetUp(false)
	if d.Up() {
		t.Error("device should be down")
	}
	if err := d.Admit(resource.MB(1, 1)); err == nil {
		t.Error("admission on a down device should fail")
	}
	d.SetUp(true)
	if err := d.Admit(resource.MB(1, 1)); err != nil {
		t.Errorf("admission after recovery failed: %v", err)
	}
}

func TestAdmitConcurrent(t *testing.T) {
	d := MustNew("pc", ClassDesktop, resource.MB(100, 100), nil)
	const workers = 20
	var wg sync.WaitGroup
	admitted := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.Admit(resource.MB(10, 10)) == nil {
				admitted <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(admitted)
	n := 0
	for range admitted {
		n++
	}
	if n != 10 {
		t.Errorf("admitted %d of 20 workers, want exactly 10", n)
	}
	if !d.Available().IsZero() {
		t.Errorf("Available = %v, want zero", d.Available())
	}
}

func TestSnapshot(t *testing.T) {
	d := MustNew("pda", ClassPDA, resource.MB(32, 40), nil)
	s := d.Snapshot()
	if s.ID != "pda" || s.Class != ClassPDA || !s.Up || !s.Available.Equal(resource.MB(32, 40)) {
		t.Errorf("Snapshot = %+v", s)
	}
	// Snapshots are isolated from later mutation.
	if err := d.Admit(resource.MB(32, 40)); err != nil {
		t.Fatal(err)
	}
	if !s.Available.Equal(resource.MB(32, 40)) {
		t.Error("snapshot must be frozen")
	}
}

func TestDeviceString(t *testing.T) {
	d := MustNew("pda1", ClassPDA, resource.MB(32, 40), nil)
	if got := d.String(); !strings.Contains(got, "pda1") || !strings.Contains(got, "pda") {
		t.Errorf("String() = %q", got)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable()
	d1 := MustNew("b-dev", ClassDesktop, resource.MB(256, 300), nil)
	d2 := MustNew("a-dev", ClassPDA, resource.MB(32, 40), nil)
	if err := tab.Add(d1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(d2); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(d1); err == nil {
		t.Error("duplicate add should fail")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
	if got := tab.Get("a-dev"); got != d2 {
		t.Error("Get mismatch")
	}
	all := tab.All()
	if len(all) != 2 || all[0].ID != "a-dev" || all[1].ID != "b-dev" {
		t.Errorf("All must be sorted by ID: %v", all)
	}
	d2.SetUp(false)
	up := tab.UpDevices()
	if len(up) != 1 || up[0].ID != "b-dev" {
		t.Errorf("UpDevices = %v", up)
	}
}

func TestLinksSetAndCapacity(t *testing.T) {
	l := NewLinks()
	if err := l.Set("a", "a", 10); err == nil {
		t.Error("self link should fail")
	}
	if err := l.Set("a", "b", -1); err == nil {
		t.Error("negative bandwidth should fail")
	}
	l.MustSet("a", "b", 50)
	if got := l.Capacity("a", "b"); got != 50 {
		t.Errorf("Capacity = %g", got)
	}
	if got := l.Capacity("b", "a"); got != 50 {
		t.Error("links must be symmetric")
	}
	if got := l.Capacity("a", "z"); got != 0 {
		t.Errorf("undeclared link capacity = %g, want 0", got)
	}
}

func TestLinksReserve(t *testing.T) {
	l := NewLinks()
	l.MustSet("pc", "pda", 5)
	if err := l.Reserve("pc", "pda", 3); err != nil {
		t.Fatal(err)
	}
	if got := l.Available("pda", "pc"); got != 2 {
		t.Errorf("Available = %g, want 2", got)
	}
	if err := l.Reserve("pda", "pc", 3); err == nil {
		t.Error("over-reservation should fail")
	}
	if err := l.Reserve("pc", "pda", -1); err == nil {
		t.Error("negative reservation should fail")
	}
	l.ReleaseBandwidth("pc", "pda", 3)
	if got := l.Available("pc", "pda"); got != 5 {
		t.Errorf("Available after release = %g", got)
	}
	l.ReleaseBandwidth("pc", "pda", 99)
	if got := l.Available("pc", "pda"); got != 5 {
		t.Errorf("over-release must clamp: %g", got)
	}
}

func TestLinksConcurrentReserve(t *testing.T) {
	l := NewLinks()
	l.MustSet("a", "b", 100)
	var wg sync.WaitGroup
	ok := make(chan struct{}, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l.Reserve("a", "b", 10) == nil {
				ok <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(ok)
	n := 0
	for range ok {
		n++
	}
	if n != 10 {
		t.Errorf("reserved %d, want exactly 10", n)
	}
}

func TestLinksSnapshot(t *testing.T) {
	l := NewLinks()
	l.MustSet("a", "b", 50)
	l.MustSet("a", "c", 5)
	if err := l.Reserve("a", "b", 20); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	if snap[linkKey("b", "a")] != 30 || snap[linkKey("a", "c")] != 5 {
		t.Errorf("snapshot = %v", snap)
	}
}

func ExampleDevice_Admit() {
	d := MustNew("pda1", ClassPDA, resource.MB(32, 40), nil)
	if err := d.Admit(resource.MB(16, 20)); err != nil {
		fmt.Println("admit failed:", err)
		return
	}
	fmt.Println(d.Available())
	// Output: [16MB, 20%]
}

func TestCommitted(t *testing.T) {
	d := MustNew("pc", ClassDesktop, resource.MB(100, 100), nil)
	if !d.Committed().IsZero() {
		t.Error("fresh device has commitments")
	}
	if err := d.Admit(resource.MB(30, 40)); err != nil {
		t.Fatal(err)
	}
	if got := d.Committed(); !got.Equal(resource.MB(30, 40)) {
		t.Errorf("Committed = %v", got)
	}
}

func TestResize(t *testing.T) {
	d := MustNew("pc", ClassDesktop, resource.MB(100, 100), nil)
	if err := d.Admit(resource.MB(30, 40)); err != nil {
		t.Fatal(err)
	}
	// Growing keeps commitments and extends availability.
	fits, err := d.Resize(resource.MB(200, 150))
	if err != nil || !fits {
		t.Fatalf("grow: fits=%v err=%v", fits, err)
	}
	if got := d.Available(); !got.Equal(resource.MB(170, 110)) {
		t.Errorf("Available after grow = %v", got)
	}
	// Shrinking below the commitments reports the overload and clamps
	// availability at zero.
	fits, err = d.Resize(resource.MB(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	if fits {
		t.Error("shrink below commitments must report !fits")
	}
	if !d.Available().IsZero() {
		t.Errorf("Available after overload shrink = %v", d.Available())
	}
	if got := d.Committed(); !got.Equal(resource.MB(30, 40)) {
		// The commitments stay counted above the shrunken capacity, so
		// the overload stays visible to whoever diagnoses the device.
		t.Errorf("Committed after shrink = %v, want the admitted [30MB, 40%%]", got)
	}
	// A release pays the overcommit off first: 10MB/20% of it leaves
	// [20MB, 20%] committed, exactly the capacity, and nothing available.
	d.Release(resource.MB(10, 20))
	if got := d.Committed(); !got.Equal(resource.MB(20, 20)) || !d.Available().IsZero() {
		t.Errorf("after a partial release: Committed %v, Available %v", got, d.Available())
	}
	// Growing back restores availability around the commitments.
	if fits, err := d.Resize(resource.MB(100, 100)); err != nil || !fits {
		t.Fatalf("regrow: fits=%v err=%v", fits, err)
	}
	d.Release(resource.MB(20, 20))
	if got := d.Available(); !got.Equal(resource.MB(100, 100)) {
		t.Errorf("Available after releasing everything = %v, want the full capacity", got)
	}
	// Invalid inputs.
	if _, err := d.Resize(resource.Vector{-1, 0}); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := d.Resize(resource.Vector{1}); err == nil {
		t.Error("dimension mismatch should fail")
	}
}
