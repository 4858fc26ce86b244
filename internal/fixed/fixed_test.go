package fixed

import (
	"testing"
	"testing/quick"
)

func TestNewNormalizesSign(t *testing.T) {
	f := New(3, -4)
	if f.Num != -3 || f.Den != 4 {
		t.Fatalf("New(3,-4) = %v, want -3/4", f)
	}
}

func TestZeroValueActsAsZero(t *testing.T) {
	var f Frac
	if !f.Zero() {
		t.Fatal("zero value should be zero")
	}
	if got := f.Add(New(1, 2)); !got.Equal(New(1, 2)) {
		t.Fatalf("0 + 1/2 = %v", got)
	}
	if f.Float() != 0 {
		t.Fatalf("zero value Float = %v", f.Float())
	}
}

func TestFracCmp(t *testing.T) {
	cases := []struct {
		a, b Frac
		want int
	}{
		{New(1, 2), New(1, 2), 0},
		{New(2, 4), New(1, 2), 0},
		{New(1, 3), New(1, 2), -1},
		{New(3, 4), New(2, 3), 1},
		{New(0, 5), New(0, 9), 0},
		{New(-1, 2), New(1, 2), -1},
		{New(-1, 2), New(-1, 3), -1},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("(%v).Cmp(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFracCmpLargeOperands(t *testing.T) {
	// Values chosen so that naive int64 cross-multiplication overflows.
	big := int64(1) << 40
	a := New(big+1, big)
	b := New(big, big-1)
	if !a.Less(b) {
		t.Errorf("expected %v < %v", a, b)
	}
	if b.Less(a) {
		t.Errorf("did not expect %v < %v", b, a)
	}
}

func TestFracArithmetic(t *testing.T) {
	a, b := New(1, 2), New(1, 3)
	if got := a.Add(b); !got.Equal(New(5, 6)) {
		t.Errorf("1/2 + 1/3 = %v, want 5/6", got)
	}
	if got := a.Sub(b); !got.Equal(New(1, 6)) {
		t.Errorf("1/2 - 1/3 = %v, want 1/6", got)
	}
	if got := a.Mul(b); !got.Equal(New(1, 6)) {
		t.Errorf("1/2 * 1/3 = %v, want 1/6", got)
	}
	if got := a.Div(b); !got.Equal(New(3, 2)) {
		t.Errorf("(1/2) / (1/3) = %v, want 3/2", got)
	}
}

func TestFracDivByZeroReturnsReceiver(t *testing.T) {
	a := New(7, 9)
	if got := a.Div(Frac{}); !got.Equal(a) {
		t.Errorf("div by zero = %v, want %v", got, a)
	}
}

func TestReduce(t *testing.T) {
	f := New(6, 8).Reduce()
	if f.Num != 3 || f.Den != 4 {
		t.Fatalf("Reduce(6/8) = %v", f)
	}
	f = New(0, 8).Reduce()
	if f.Num != 0 || f.Den != 1 {
		t.Fatalf("Reduce(0/8) = %v", f)
	}
}

func TestString(t *testing.T) {
	if got := New(2, 3).String(); got != "2/3" {
		t.Fatalf("String = %q", got)
	}
}

// Property: Cmp agrees with float comparison for moderate operands.
func TestFracCmpMatchesFloat(t *testing.T) {
	f := func(an, ad, bn, bd int32) bool {
		a := New(int64(an), int64(ad))
		b := New(int64(bn), int64(bd))
		af, bf := a.Float(), b.Float()
		got := a.Cmp(b)
		switch {
		case af < bf:
			return got == -1
		case af > bf:
			return got == 1
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Add then Sub round-trips.
func TestFracAddSubRoundTrip(t *testing.T) {
	f := func(an, bn int16, ad, bd uint8) bool {
		a := New(int64(an), int64(ad)+1)
		b := New(int64(bn), int64(bd)+1)
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Reduce preserves value.
func TestReducePreservesValue(t *testing.T) {
	f := func(n int32, d uint16) bool {
		a := New(int64(n), int64(d)+1)
		return a.Reduce().Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
