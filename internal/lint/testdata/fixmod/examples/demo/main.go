// Command demo is the deadexport fixture's example: examples/ is not a
// reference root, so what only it references is still dead.
package main

import (
	"fmt"

	"spp1000/internal/dead"
)

func main() { fmt.Println(dead.UsedByExample()) }
