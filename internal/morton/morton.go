// Package morton implements Morton (Z-order) encoding in two and three
// dimensions. The paper's FEM code orders mesh points and elements along
// a Morton curve to improve cache locality of the gather/scatter phases
// (§5.2.1, citing Warren & Salmon); the tree code uses 3-D keys for its
// spatial hierarchy.
package morton

// spread2 inserts a zero bit between each of the low 16 bits.
func spread2(x uint32) uint32 {
	x &= 0xFFFF
	x = (x | x<<8) & 0x00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F
	x = (x | x<<2) & 0x33333333
	x = (x | x<<1) & 0x55555555
	return x
}

// Encode2 interleaves two 16-bit coordinates into a Z-order key.
func Encode2(x, y uint32) uint64 {
	return uint64(spread2(x)) | uint64(spread2(y))<<1
}

// spread3 inserts two zero bits between each of the low 21 bits.
func spread3(x uint64) uint64 {
	x &= 0x1FFFFF
	x = (x | x<<32) & 0x1F00000000FFFF
	x = (x | x<<16) & 0x1F0000FF0000FF
	x = (x | x<<8) & 0x100F00F00F00F00F
	x = (x | x<<4) & 0x10C30C30C30C30C3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// Encode3 interleaves three 21-bit coordinates into a Z-order key.
func Encode3(x, y, z uint64) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}
