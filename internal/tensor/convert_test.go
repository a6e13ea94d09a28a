package tensor

import (
	"testing"
	"testing/quick"
)

func TestConvertPreservesLogicalValues(t *testing.T) {
	s := Shape{N: 4, C: 3, H: 5, W: 6}
	src := Random(s, NCHW, 7)
	for _, dst := range Layouts {
		got := Convert(src, dst)
		if got.Layout != dst {
			t.Fatalf("Convert layout = %v, want %v", got.Layout, dst)
		}
		if !AllClose(src, got, 0) {
			t.Errorf("Convert to %v altered logical values", dst)
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	s := Shape{N: 8, C: 16, H: 7, W: 7}
	orig := Random(s, CHWN, 11)
	for _, mid := range Layouts {
		back := Convert(Convert(orig, mid), CHWN)
		if !AllClose(orig, back, 0) {
			t.Errorf("round trip via %v altered data", mid)
		}
	}
}

func TestConvertSameLayoutIsCopy(t *testing.T) {
	src := Random(Shape{2, 2, 3, 3}, NHWC, 3)
	got := Convert(src, NHWC)
	got.Data[0] = 1234
	if src.Data[0] == 1234 {
		t.Error("Convert to same layout must return an independent copy")
	}
}

func TestConvertIntoShapeMismatch(t *testing.T) {
	a := New(Shape{1, 1, 2, 2}, NCHW)
	b := New(Shape{1, 1, 2, 3}, CHWN)
	if err := ConvertInto(a, b); err == nil {
		t.Error("shape mismatch must be rejected")
	}
}

func TestConvertIntoMatchesConvert(t *testing.T) {
	s := Shape{N: 3, C: 4, H: 5, W: 2}
	src := Random(s, NCHW, 5)
	for _, l := range Layouts {
		dst := New(s, l)
		if err := ConvertInto(src, dst); err != nil {
			t.Fatal(err)
		}
		want := Convert(src, l)
		if !AllClose(want, dst, 0) {
			t.Errorf("ConvertInto(%v) differs from Convert", l)
		}
	}
}

// Property: converting a Sequential tensor to any layout keeps each logical
// coordinate's canonical index attached to it.
func TestConvertSequentialProperty(t *testing.T) {
	f := func(rawN, rawC, rawH, rawW, li, lj uint8) bool {
		s := Shape{
			N: int(rawN%5) + 1,
			C: int(rawC%5) + 1,
			H: int(rawH%5) + 1,
			W: int(rawW%5) + 1,
		}
		from := Layouts[int(li)%len(Layouts)]
		to := Layouts[int(lj)%len(Layouts)]
		src := Sequential(s, from)
		dst := Convert(src, to)
		idx := 0
		for n := 0; n < s.N; n++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						if dst.At(n, c, h, w) != float32(idx) {
							return false
						}
						idx++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRandomIsLayoutIndependent(t *testing.T) {
	s := Shape{N: 3, C: 2, H: 4, W: 4}
	a := Random(s, NCHW, 99)
	b := Random(s, CHWN, 99)
	if !AllClose(a, b, 0) {
		t.Error("Random with the same seed must produce the same logical tensor in every layout")
	}
	c := Random(s, NCHW, 100)
	if AllClose(a, c, 0) {
		t.Error("different seeds should produce different tensors")
	}
}

func TestRandomRange(t *testing.T) {
	tt := Random(Shape{2, 2, 8, 8}, NCHW, 1)
	for _, v := range tt.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("Random value %v outside [-1,1)", v)
		}
	}
}

func TestFiltersShape(t *testing.T) {
	f := Filters(16, 3, 5, 5, 2)
	want := Shape{N: 16, C: 3, H: 5, W: 5}
	if f.Shape != want {
		t.Errorf("Filters shape = %v, want %v", f.Shape, want)
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	a := New(Shape{1, 1, 2, 2}, NCHW)
	b := New(Shape{1, 2, 2, 2}, NCHW)
	if _, err := MaxAbsDiff(a, b); err == nil {
		t.Error("shape mismatch must error")
	}
	if AllClose(a, b, 1) {
		t.Error("AllClose must be false on shape mismatch")
	}
	if RelClose(a, b, 1, 1) {
		t.Error("RelClose must be false on shape mismatch")
	}
}

func TestRelClose(t *testing.T) {
	s := Shape{1, 1, 2, 2}
	a := New(s, NCHW)
	b := New(s, NCHW)
	a.Fill(1000)
	b.Fill(1000.5)
	if !RelClose(a, b, 0, 1e-3) {
		t.Error("values within relative tolerance should pass")
	}
	if RelClose(a, b, 0, 1e-6) {
		t.Error("values outside relative tolerance should fail")
	}
}

func BenchmarkConvertCHWNToNCHW(b *testing.B) {
	src := Random(Shape{N: 128, C: 16, H: 28, W: 28}, CHWN, 1)
	dst := New(src.Shape, NCHW)
	b.SetBytes(src.Shape.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ConvertInto(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
