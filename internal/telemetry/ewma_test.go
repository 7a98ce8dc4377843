package telemetry

import "testing"

// TestEWMA: the first sample seeds the average, later samples move it a
// quarter of the way, and readiness starts with the first sample.
func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Ready() {
		t.Fatal("zero EWMA reports ready")
	}
	e.Observe(2)
	if !e.Ready() || e != 2 {
		t.Fatalf("after seeding with 2: %v (ready %v), want 2", float64(e), e.Ready())
	}
	for _, step := range []struct{ x, want float64 }{
		{6, 3},     // 2 + (6−2)/4
		{3, 3},     // a sample equal to the average leaves it
		{7, 4},     // 3 + (7−3)/4
		{0.4, 3.1}, // 4 + (0.4−4)/4
		{7.1, 4.1}, // 3.1 + 4/4
	} {
		e.Observe(step.x)
		if d := float64(e) - step.want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("after %v: %v, want %v", step.x, float64(e), step.want)
		}
	}
}
