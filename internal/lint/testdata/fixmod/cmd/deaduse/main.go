// Command deaduse is the deadexport fixture's production caller: what
// it references is live.
package main

import (
	"fmt"

	"spp1000/internal/dead"
)

// sized is implemented by dead.Outer, partly through the Len it
// promotes from dead.Inner.
type sized interface {
	Len() dead.Level
	Cap() int
}

func main() {
	var s sized = dead.Outer{}
	fmt.Println(dead.UsedByCmd(), dead.Level(1), s.Len(), s.Cap(), dead.Tally{})
}
