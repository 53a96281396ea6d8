// Command perfbench is the deadexport fixture's nested reference
// module: its calls into internal/ count as production references.
package main

import (
	"fmt"

	"spp1000/internal/dead"
)

func main() { fmt.Println(dead.UsedByBench()) }
