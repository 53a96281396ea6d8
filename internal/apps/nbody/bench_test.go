package nbody

import (
	"slices"
	"testing"
)

// The host stages of CountWorkload at Fig. 8's largest problem size.
const benchBodies = 2097152

// BenchmarkPlummerPositions samples the 2M-body set, as CountWorkload
// does.
func BenchmarkPlummerPositions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plummerPositions(benchBodies, 1)
	}
}

// BenchmarkSortMorton Morton-orders a fresh copy of the 2M-body set.
func BenchmarkSortMorton(b *testing.B) {
	src := plummerPositions(benchBodies, 1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := &Bodies{
			X: slices.Clone(src.X), Y: slices.Clone(src.Y), Z: slices.Clone(src.Z),
			M: slices.Clone(src.M),
		}
		b.StartTimer()
		SortMorton(c)
	}
}

// BenchmarkBuild builds the octree over the Morton-ordered 2M-body set.
func BenchmarkBuild(b *testing.B) {
	src := plummerPositions(benchBodies, 1)
	SortMorton(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(src)
	}
}
