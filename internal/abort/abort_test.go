package abort

import "testing"

func TestReasonString(t *testing.T) {
	want := map[Reason]string{
		None: "none", Conflict: "conflict", Capacity: "capacity",
		Explicit: "explicit", Other: "other", Count: "reason(5)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("String(%d) = %q, want %q", r, r.String(), s)
		}
	}
}
