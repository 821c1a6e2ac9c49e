package wire

import "testing"

func TestVecAndAttrs(t *testing.T) {
	if got := formatVec([]float64{256, 300.5}); got != "[256,300.5]" {
		t.Errorf("formatVec = %q", got)
	}
	if got := formatAttrs(nil); got != "-" {
		t.Errorf("formatAttrs(nil) = %q", got)
	}
	if got := formatAttrs(map[string]string{"b": "2", "a": "1"}); got != "a=1 b=2" {
		t.Errorf("formatAttrs = %q", got)
	}
}

func TestSessionTextNil(t *testing.T) {
	// A reply without a session renders a placeholder instead of panicking.
	if got := sessionText(Request{}, Response{}); got != "(no session)\n" {
		t.Errorf("sessionText = %q", got)
	}
}
