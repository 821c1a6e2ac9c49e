package resource

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorValidate(t *testing.T) {
	tests := []struct {
		name    string
		v       Vector
		wantErr bool
	}{
		{"empty", Vector{}, false},
		{"ok", MB(256, 300), false},
		{"zero", New(2), false},
		{"negative", Vector{-1, 0}, true},
		{"nan", Vector{math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.v.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAdd(t *testing.T) {
	a, b := MB(10, 20), MB(1, 2)
	got := a.Add(b)
	if !got.Equal(MB(11, 22)) {
		t.Errorf("Add = %v", got)
	}
	if !a.Equal(MB(10, 20)) {
		t.Error("Add must not mutate")
	}
}

func TestAddDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	MB(1, 2).Add(Vector{1})
}

func TestSub(t *testing.T) {
	got := MB(10, 20).Sub(MB(4, 30))
	if !got.Equal(MB(6, 0)) {
		t.Errorf("Sub should clamp at zero: %v", got)
	}
}

func TestAddInPlace(t *testing.T) {
	v := MB(1, 2)
	v.AddInPlace(MB(10, 20))
	if !v.Equal(MB(11, 22)) {
		t.Errorf("AddInPlace = %v", v)
	}
}

func TestLessEq(t *testing.T) {
	tests := []struct {
		a, b Vector
		want bool
	}{
		{MB(10, 20), MB(10, 20), true},
		{MB(10, 20), MB(11, 21), true},
		{MB(10, 22), MB(11, 21), false},
		{MB(12, 20), MB(11, 21), false},
		{New(2), MB(0, 0), true},
	}
	for _, tt := range tests {
		if got := tt.a.LessEq(tt.b); got != tt.want {
			t.Errorf("%v.LessEq(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestEqualAndIsZeroAndClone(t *testing.T) {
	if MB(1, 2).Equal(Vector{1}) {
		t.Error("different dims must not be equal")
	}
	if !New(3).IsZero() || MB(0, 1).IsZero() {
		t.Error("IsZero mismatch")
	}
	v := MB(5, 6)
	c := v.Clone()
	c[0] = 99
	if v[0] != 5 {
		t.Error("Clone must copy")
	}
	if Vector(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestScale(t *testing.T) {
	if got := MB(2, 4).Scale(2.5); !got.Equal(MB(5, 10)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestWeightedSum(t *testing.T) {
	v := MB(100, 50)
	w := []float64{0.4, 0.4, 0.2} // m+1 weights; network entry ignored
	if got := v.WeightedSum(w); math.Abs(got-60) > 1e-12 {
		t.Errorf("WeightedSum = %g, want 60", got)
	}
	if got := v.WeightedSum(nil); got != 0 {
		t.Errorf("WeightedSum with no weights = %g", got)
	}
}

func TestRelativeLoad(t *testing.T) {
	r := MB(64, 50)
	ra := MB(256, 100)
	w := []float64{0.4, 0.4}
	want := 0.4*64/256 + 0.4*50/100
	if got := r.RelativeLoad(ra, w); math.Abs(got-want) > 1e-12 {
		t.Errorf("RelativeLoad = %g, want %g", got, want)
	}
	if got := MB(1, 0).RelativeLoad(MB(0, 100), w); !math.IsInf(got, 1) {
		t.Errorf("nonzero requirement on zero availability should be +Inf, got %g", got)
	}
	if got := MB(0, 0).RelativeLoad(MB(0, 0), w); got != 0 {
		t.Errorf("zero requirement should cost 0, got %g", got)
	}
}

func TestSum(t *testing.T) {
	got := Sum(2, MB(1, 2), MB(3, 4), MB(5, 6))
	if !got.Equal(MB(9, 12)) {
		t.Errorf("Sum = %v", got)
	}
	if !Sum(2).Equal(New(2)) {
		t.Error("empty Sum should be zero vector")
	}
}

func TestString(t *testing.T) {
	got := Vector{256, 300, 7}.String()
	if !strings.Contains(got, "256MB") || !strings.Contains(got, "300%") || !strings.Contains(got, "7") {
		t.Errorf("String() = %q", got)
	}
}

func TestWeights(t *testing.T) {
	w, err := NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Network() != 0.4 || w.Dims() != 2 {
		t.Errorf("Network/Dims = %g/%d", w.Network(), w.Dims())
	}
	if got := w.EndSystem(); !reflect.DeepEqual(got, []float64{0.3, 0.3}) {
		t.Errorf("EndSystem = %v", got)
	}
	cases := []struct {
		name string
		ws   []float64
	}{
		{"too few", []float64{1}},
		{"negative", []float64{-0.5, 1.5}},
		{"not summing to one", []float64{0.5, 0.6}},
		{"nan", []float64{math.NaN(), 1}},
	}
	for _, c := range cases {
		if _, err := NewWeights(c.ws...); err == nil {
			t.Errorf("%s: NewWeights(%v) should fail", c.name, c.ws)
		}
	}
}

func TestUniformWeights(t *testing.T) {
	w := UniformWeights(2)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 || math.Abs(w[0]-1.0/3) > 1e-12 {
		t.Errorf("UniformWeights = %v", w)
	}
}

func TestNormalizerPaperExample(t *testing.T) {
	// Laptop benchmark; PDA at 0.4x speed, PC at 5x speed (paper §3.3).
	pda, err := SpeedNormalizer(0.4)
	if err != nil {
		t.Fatal(err)
	}
	got := pda.Availability(MB(32, 100))
	if !got.Equal(MB(32, 40)) {
		t.Errorf("N(RA_PDA) = %v, want [32MB, 40%%]", got)
	}
	pc, err := SpeedNormalizer(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := pc.Availability(MB(256, 100)); !got.Equal(MB(256, 500)) {
		t.Errorf("N(RA_PC) = %v, want [256MB, 500%%]", got)
	}
}

func TestNormalizerValidation(t *testing.T) {
	if _, err := NewNormalizer(1, 0); err == nil {
		t.Error("zero factor should fail")
	}
	if _, err := NewNormalizer(1, -2); err == nil {
		t.Error("negative factor should fail")
	}
}

// genVector produces a random nonnegative 2-dim vector.
func genVector(r *rand.Rand) Vector {
	return MB(float64(r.Intn(512)), float64(r.Intn(600)))
}

type vecGen struct{ V Vector }

// Generate implements quick.Generator.
func (vecGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(vecGen{V: genVector(r)})
}

func TestPropAddCommutativeAssociative(t *testing.T) {
	prop := func(a, b, c vecGen) bool {
		if !a.V.Add(b.V).Equal(b.V.Add(a.V)) {
			return false
		}
		return a.V.Add(b.V).Add(c.V).Equal(a.V.Add(b.V.Add(c.V)))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropLessEqPartialOrder(t *testing.T) {
	prop := func(a, b, c vecGen) bool {
		if !a.V.LessEq(a.V) { // reflexive
			return false
		}
		if a.V.LessEq(b.V) && b.V.LessEq(c.V) && !a.V.LessEq(c.V) { // transitive
			return false
		}
		if a.V.LessEq(b.V) && b.V.LessEq(a.V) && !a.V.Equal(b.V) { // antisymmetric
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddMonotone(t *testing.T) {
	// a ≤ b implies a+c ≤ b+c.
	prop := func(a, b, c vecGen) bool {
		if !a.V.LessEq(b.V) {
			return true
		}
		return a.V.Add(c.V).LessEq(b.V.Add(c.V))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubAddClamped(t *testing.T) {
	// (a-b)+b ≥ a is false in general under clamping, but a-(a) is zero
	// and a-b ≤ a always holds.
	prop := func(a, b vecGen) bool {
		if !a.V.Sub(a.V).IsZero() {
			return false
		}
		return a.V.Sub(b.V).LessEq(a.V)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
