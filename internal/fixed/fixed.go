// Package fixed implements the fixed-point arithmetic the paper builds to
// avoid the VxWorks software floating-point library on the FPU-less i960 RD
// (§4.2: "arguments are simply stored as fractions with numerator and
// denominator with divisions implemented as shifts").
//
// Its one type, Frac, is an exact numerator/denominator pair, used by the
// DWCS scheduler for loss-tolerance (window-constraint) values x/y. All
// operations are integer-only; nothing in this package touches float64
// except the explicit conversion helper, mirroring the paper's split
// between the software-FP build and the fixed-point build.
package fixed

import (
	"fmt"
	"math/bits"
)

// Frac is an exact fraction. The zero value is the fraction 0/1... except
// that a zero Den is normalized to 1 lazily by accessors, so the zero value
// is usable as 0.
type Frac struct {
	Num int64
	Den int64
}

// New returns the fraction num/den. A zero den is treated as 1 so that the
// zero value of Frac behaves as 0.
func New(num, den int64) Frac {
	if den == 0 {
		den = 1
	}
	if den < 0 {
		num, den = -num, -den
	}
	return Frac{num, den}
}

// Zero reports whether f equals 0.
func (f Frac) Zero() bool { return f.Num == 0 }

// den returns the denominator, mapping 0 to 1 so the zero value acts as 0/1.
func (f Frac) den() int64 {
	if f.Den == 0 {
		return 1
	}
	return f.Den
}

// Cmp compares f and g exactly, returning -1, 0, or +1.
func (f Frac) Cmp(g Frac) int {
	// Cross-multiply in 128 bits to avoid overflow for any int64 operands.
	lhsHi, lhsLo := mul64(f.Num, g.den())
	rhsHi, rhsLo := mul64(g.Num, f.den())
	switch {
	case lhsHi < rhsHi:
		return -1
	case lhsHi > rhsHi:
		return 1
	case lhsLo < rhsLo:
		return -1
	case lhsLo > rhsLo:
		return 1
	default:
		return 0
	}
}

// mul64 returns the signed 128-bit product hi:lo of a*b, with lo compared as
// unsigned when hi parts are equal.
func mul64(a, b int64) (hi int64, lo uint64) {
	neg := false
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
		neg = !neg
	}
	if b < 0 {
		ub = uint64(-b)
		neg = !neg
	}
	h, l := bits.Mul64(ua, ub)
	if neg {
		// two's complement negate the 128-bit value
		l = ^l + 1
		h = ^h
		if l == 0 {
			h++
		}
	}
	return int64(h), l
}

// Less reports whether f < g.
func (f Frac) Less(g Frac) bool { return f.Cmp(g) < 0 }

// Equal reports whether f == g as rational numbers (2/4 equals 1/2).
func (f Frac) Equal(g Frac) bool { return f.Cmp(g) == 0 }

// Add returns f+g, reduced.
func (f Frac) Add(g Frac) Frac {
	return New(f.Num*g.den()+g.Num*f.den(), f.den()*g.den()).Reduce()
}

// Sub returns f-g, reduced.
func (f Frac) Sub(g Frac) Frac {
	return New(f.Num*g.den()-g.Num*f.den(), f.den()*g.den()).Reduce()
}

// Mul returns f*g, reduced.
func (f Frac) Mul(g Frac) Frac {
	return New(f.Num*g.Num, f.den()*g.den()).Reduce()
}

// Div returns f/g, reduced. Division by a zero fraction returns f unchanged,
// matching the defensive behaviour of the embedded scheduler (a zero
// loss-tolerance denominator never occurs in a validated stream spec).
func (f Frac) Div(g Frac) Frac {
	if g.Num == 0 {
		return f
	}
	return New(f.Num*g.den(), f.den()*g.Num).Reduce()
}

// Reduce returns f in lowest terms with a positive denominator.
func (f Frac) Reduce() Frac {
	n, d := f.Num, f.den()
	g := gcd(abs(n), d)
	if g > 1 {
		n /= g
		d /= g
	}
	return Frac{n, d}
}

// Float converts f to float64. Only for reporting; the scheduler never calls
// this in its fixed-point build.
func (f Frac) Float() float64 { return float64(f.Num) / float64(f.den()) }

// String renders f as "num/den".
func (f Frac) String() string { return fmt.Sprintf("%d/%d", f.Num, f.den()) }

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
