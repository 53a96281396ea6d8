// amrblast runs a cylindrical blast wave with the adaptive-mesh-
// refinement extension and times it on an 8-CPU simulated SPP-1000:
// the refinement tracks the expanding shock front, so the run updates
// several times fewer zones than the equivalent uniform fine grid.
package main

import (
	"fmt"
	"log"

	"spp1000/internal/apps/amr"
)

func main() {
	d, err := amr.New(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	w := float64(4 * amr.BlockSize)
	d.SetRegion(func(x, y float64) (rho, u, v, p float64) {
		dx, dy := x-w/2, y-w/2
		if dx*dx+dy*dy < 36 {
			return 1, 0, 0, 20 // hot center
		}
		return 1, 0, 0, 0.5
	})
	r, err := amr.Run(d, 8, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8-CPU timed blast: %v\n", r)
}
