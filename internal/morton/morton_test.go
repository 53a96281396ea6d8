package morton

import (
	"testing"
	"testing/quick"
)

func TestEncode2Known(t *testing.T) {
	cases := []struct {
		x, y uint32
		key  uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{3, 3, 15},
	}
	for _, c := range cases {
		if got := Encode2(c.x, c.y); got != c.key {
			t.Errorf("Encode2(%d,%d) = %d, want %d", c.x, c.y, got, c.key)
		}
	}
}

func TestEncode3Known(t *testing.T) {
	cases := []struct {
		x, y, z uint64
		key     uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
	}
	for _, c := range cases {
		if got := Encode3(c.x, c.y, c.z); got != c.key {
			t.Errorf("Encode3(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.key)
		}
	}
}

// Property: Decode2 ∘ Encode2 = identity on 16-bit coordinates.
func TestRoundTrip2(t *testing.T) {
	prop := func(x, y uint16) bool {
		gx, gy := Decode2(Encode2(uint32(x), uint32(y)))
		return gx == uint32(x) && gy == uint32(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode3 ∘ Encode3 = identity on 21-bit coordinates.
func TestRoundTrip3(t *testing.T) {
	prop := func(x, y, z uint32) bool {
		xi, yi, zi := uint64(x)&0x1FFFFF, uint64(y)&0x1FFFFF, uint64(z)&0x1FFFFF
		gx, gy, gz := Decode3(Encode3(xi, yi, zi))
		return gx == xi && gy == yi && gz == zi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Morton order preserves locality at power-of-two block
// granularity — two points in the same 2^k-aligned square share the
// high key bits.
func TestBlockLocality(t *testing.T) {
	prop := func(x, y uint16, k8 uint8) bool {
		k := uint(k8 % 8)
		mask := ^uint64(0) << (2 * k)
		bx, by := uint32(x)&^(1<<k-1), uint32(y)&^(1<<k-1)
		a := Encode2(uint32(x), uint32(y))
		b := Encode2(bx, by)
		return a&mask == b&mask
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: keys are unique (Encode2 injective).
func TestInjective2(t *testing.T) {
	seen := map[uint64][2]uint32{}
	for x := uint32(0); x < 64; x++ {
		for y := uint32(0); y < 64; y++ {
			key := Encode2(x, y)
			if prev, ok := seen[key]; ok {
				t.Fatalf("collision: (%d,%d) and %v both map to %d", x, y, prev, key)
			}
			seen[key] = [2]uint32{x, y}
		}
	}
}

// compact2 is the inverse of spread2.
func compact2(x uint32) uint32 {
	x &= 0x55555555
	x = (x | x>>1) & 0x33333333
	x = (x | x>>2) & 0x0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF
	x = (x | x>>8) & 0x0000FFFF
	return x
}

// Decode2 recovers the coordinates from a 2-D key.
func Decode2(key uint64) (x, y uint32) {
	return compact2(uint32(key)), compact2(uint32(key >> 1))
}

// compact3 is the inverse of spread3.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10C30C30C30C30C3
	x = (x | x>>4) & 0x100F00F00F00F00F
	x = (x | x>>8) & 0x1F0000FF0000FF
	x = (x | x>>16) & 0x1F00000000FFFF
	x = (x | x>>32) & 0x1FFFFF
	return x
}

// Decode3 recovers the coordinates from a 3-D key.
func Decode3(key uint64) (x, y, z uint64) {
	return compact3(key), compact3(key >> 1), compact3(key >> 2)
}
