// Command deaduse is the deadexport fixture's production caller: what
// it references is live.
package main

import (
	"fmt"

	"spp1000/internal/dead"
)

func main() {
	fmt.Println(dead.UsedByCmd(), dead.Level(1))
}
