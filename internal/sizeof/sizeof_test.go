package sizeof

import "testing"

type plain struct {
	A uint64
	B uint32
}

type packed struct{ A, B uint32 }

func (*packed) ModeledBytes() int { return 16 }

// TestOf: a type without a declared size is charged its in-memory size, a
// type with one its declared size.
func TestOf(t *testing.T) {
	if got := Of[plain](); got != 16 {
		t.Errorf("Of[plain] = %d, want unsafe.Sizeof's 16", got)
	}
	if got := Of[uint32](); got != 4 {
		t.Errorf("Of[uint32] = %d, want 4", got)
	}
	if got := Of[packed](); got != 16 {
		t.Errorf("Of[packed] = %d, want the declared 16 (in memory 8)", got)
	}
}
