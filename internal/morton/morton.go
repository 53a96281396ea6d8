// Package morton implements 3-D Morton (Z-order) encoding. The tree
// code sorts its bodies by Morton key so that bodies close in space sit
// close in memory, which gives the tree build and traversal their cache
// locality (§5.2.1's ordering argument, citing Warren & Salmon, applied
// to the tree code).
package morton

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
