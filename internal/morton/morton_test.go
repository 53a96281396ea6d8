package morton

import (
	"testing"
	"testing/quick"
)

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
