package tensor

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestLayoutString(t *testing.T) {
	cases := map[Layout]string{
		NCHW:       "NCHW",
		CHWN:       "CHWN",
		Layout(42): "Layout(42)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Layout(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestLayoutValid(t *testing.T) {
	for _, l := range Layouts {
		if !l.Valid() {
			t.Errorf("%v should be valid", l)
		}
	}
	if !reflect.DeepEqual(Layouts, []Layout{NCHW, CHWN}) {
		t.Errorf("Layouts = %v, want the paper's two, NCHW and CHWN", Layouts)
	}
	if Layout(-1).Valid() || Layout(2).Valid() || Layout(99).Valid() {
		t.Errorf("out-of-range layouts must be invalid")
	}
}

func TestShapeElemsBytes(t *testing.T) {
	s := Shape{N: 2, C: 3, H: 4, W: 5}
	if s.Elems() != 120 {
		t.Errorf("Elems = %d, want 120", s.Elems())
	}
	if s.Bytes() != 480 {
		t.Errorf("Bytes = %d, want 480", s.Bytes())
	}
	if s.String() != "2x3x4x5" {
		t.Errorf("String = %q", s.String())
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 1, 1, 1}).Valid() {
		t.Error("1x1x1x1 should be valid")
	}
	for _, s := range []Shape{{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}, {-1, 2, 2, 2}} {
		if s.Valid() {
			t.Errorf("%v should be invalid", s)
		}
	}
}

func TestStridesInnermost(t *testing.T) {
	s := Shape{N: 4, C: 3, H: 5, W: 7}
	cases := []struct {
		layout    Layout
		wantInner string
	}{
		{NCHW, "W"}, {CHWN, "N"},
	}
	for _, c := range cases {
		sn, sc, sh, sw := s.Strides(c.layout)
		strides := map[string]int{"N": sn, "C": sc, "H": sh, "W": sw}
		if strides[c.wantInner] != 1 {
			t.Errorf("%v: stride of %s = %d, want 1", c.layout, c.wantInner, strides[c.wantInner])
		}
		// The strides must be a permutation such that the product of the
		// largest stride and its dimension extent equals the element count.
		if sn*1 < 0 || sc < 0 || sh < 0 || sw < 0 {
			t.Errorf("%v: negative stride", c.layout)
		}
	}
}

func TestOffsetBijection(t *testing.T) {
	s := Shape{N: 3, C: 2, H: 4, W: 5}
	for _, l := range Layouts {
		seen := make(map[int]bool, s.Elems())
		for n := 0; n < s.N; n++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						off := s.Offset(l, n, c, h, w)
						if off < 0 || off >= s.Elems() {
							t.Fatalf("%v: offset %d out of range", l, off)
						}
						if seen[off] {
							t.Fatalf("%v: offset %d visited twice", l, off)
						}
						seen[off] = true
					}
				}
			}
		}
		if len(seen) != s.Elems() {
			t.Errorf("%v: only %d distinct offsets, want %d", l, len(seen), s.Elems())
		}
	}
}

func TestCoordInvertsOffset(t *testing.T) {
	s := Shape{N: 3, C: 5, H: 2, W: 7}
	for _, l := range Layouts {
		for off := 0; off < s.Elems(); off++ {
			n, c, h, w := s.Coord(l, off)
			if got := s.Offset(l, n, c, h, w); got != off {
				t.Fatalf("%v: Offset(Coord(%d)) = %d", l, off, got)
			}
		}
	}
}

// TestCoordOffsetRoundTripQuick property-tests the Offset/Coord bijection on
// randomly drawn shapes and coordinates.
func TestCoordOffsetRoundTripQuick(t *testing.T) {
	f := func(rawN, rawC, rawH, rawW uint8, li uint8, pick uint32) bool {
		s := Shape{
			N: int(rawN%8) + 1,
			C: int(rawC%8) + 1,
			H: int(rawH%8) + 1,
			W: int(rawW%8) + 1,
		}
		l := Layouts[int(li)%len(Layouts)]
		off := int(pick) % s.Elems()
		n, c, h, w := s.Coord(l, off)
		if n < 0 || n >= s.N || c < 0 || c >= s.C || h < 0 || h >= s.H || w < 0 || w >= s.W {
			return false
		}
		return s.Offset(l, n, c, h, w) == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	mustPanic(t, func() { New(Shape{0, 1, 1, 1}, NCHW) })
	mustPanic(t, func() { New(Shape{1, 1, 1, 1}, Layout(9)) })
}

func TestNewFromValidation(t *testing.T) {
	s := Shape{N: 1, C: 1, H: 2, W: 2}
	if _, err := NewFrom(s, NCHW, make([]float32, 3)); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if _, err := NewFrom(s, Layout(17), make([]float32, 4)); err == nil {
		t.Error("invalid layout must be rejected")
	}
	if _, err := NewFrom(Shape{}, NCHW, nil); err == nil {
		t.Error("invalid shape must be rejected")
	}
	tt, err := NewFrom(s, NCHW, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if tt.At(0, 0, 1, 1) != 4 {
		t.Errorf("At(0,0,1,1) = %v, want 4", tt.At(0, 0, 1, 1))
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	s := Shape{N: 2, C: 3, H: 4, W: 5}
	for _, l := range Layouts {
		tt := New(s, l)
		want := make(map[[4]int]float32)
		r := rand.New(rand.NewSource(1))
		for n := 0; n < s.N; n++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						v := r.Float32()
						tt.Set(n, c, h, w, v)
						want[[4]int{n, c, h, w}] = v
					}
				}
			}
		}
		for k, v := range want {
			if got := tt.At(k[0], k[1], k[2], k[3]); got != v {
				t.Fatalf("%v: At%v = %v, want %v", l, k, got, v)
			}
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	tt := New(Shape{1, 1, 2, 2}, NCHW)
	mustPanic(t, func() { tt.At(1, 0, 0, 0) })
	mustPanic(t, func() { tt.At(0, 0, -1, 0) })
	mustPanic(t, func() { tt.Set(0, 0, 0, 2, 1) })
}

func TestCloneIndependence(t *testing.T) {
	a := Sequential(Shape{1, 2, 2, 2}, NCHW)
	b := a.Clone()
	b.Set(0, 0, 0, 0, 99)
	if a.At(0, 0, 0, 0) == 99 {
		t.Error("Clone must not share backing storage")
	}
	if !reflect.DeepEqual(a.Shape, b.Shape) || a.Layout != b.Layout {
		t.Error("Clone must preserve shape and layout")
	}
}

func TestFill(t *testing.T) {
	tt := New(Shape{2, 2, 2, 2}, CHWN)
	tt.Fill(3.5)
	for _, v := range tt.Data {
		if v != 3.5 {
			t.Fatalf("Fill left value %v", v)
		}
	}
}

func TestTensorString(t *testing.T) {
	tt := New(Shape{1, 2, 3, 4}, CHWN)
	if got := tt.String(); got == "" {
		t.Error("String must not be empty")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestSameOrder checks which layout pairs store a shape in the same order:
// NCHW and CHWN for one image and for a batch of single values, every layout
// with itself, and not the pair once the dimensions they order differently
// are longer than one.
func TestSameOrder(t *testing.T) {
	cases := []struct {
		s    Shape
		a, b Layout
		want bool
	}{
		{Shape{N: 1, C: 3, H: 4, W: 5}, NCHW, CHWN, true},
		{Shape{N: 2, C: 3, H: 4, W: 5}, NCHW, CHWN, false},
		{Shape{N: 2, C: 1, H: 1, W: 1}, CHWN, NCHW, true},
		{Shape{N: 2, C: 3, H: 1, W: 1}, NCHW, CHWN, false},
		{Shape{N: 2, C: 3, H: 4, W: 5}, CHWN, CHWN, true},
	}
	for _, tc := range cases {
		if got := tc.s.SameOrder(tc.a, tc.b); got != tc.want {
			t.Errorf("%v: SameOrder(%v, %v) = %t, want %t", tc.s, tc.a, tc.b, got, tc.want)
		}
		// Whatever the answer, ConvertInto's result is the conversion.
		src := Random(tc.s, tc.a, 3)
		dst := New(tc.s, tc.b)
		if err := ConvertInto(src, dst); err != nil {
			t.Fatal(err)
		}
		if want := Convert(src, tc.b); !RelClose(dst, want, 0, 0) {
			t.Errorf("%v: ConvertInto %v -> %v differs from Convert", tc.s, tc.a, tc.b)
		}
	}
}
