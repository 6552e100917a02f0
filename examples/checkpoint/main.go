// Checkpoint: fault recovery at scale. As the cluster grows, system
// MTBF collapses and a week-long job cannot finish without
// checkpoint/restart; this example compares the Young and Daly analytic
// intervals with the simulated optimum at each scale.
//
// Run with: go run ./examples/checkpoint [-work HOURS] [-delta MINUTES]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"northstar"
)

func main() {
	workHours := flag.Float64("work", 168, "useful work in hours")
	deltaMin := flag.Float64("delta", 5, "checkpoint write cost in minutes")
	flag.Parse()

	nodeMTBF := 1000 * northstar.Day
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "nodes\tsystem MTBF\tall-up avail\tYoung\tsimulated opt\tuseful work")
	for _, n := range []int{128, 512, 2048, 8192} {
		sys := northstar.FaultSystem{
			Nodes:    n,
			Lifetime: northstar.Exponential{Rate: 1 / float64(nodeMTBF)},
			Repair:   northstar.ConstantDist{V: float64(4 * northstar.Hour)},
		}
		mtbf := sys.MTBF()
		c := northstar.Checkpoint{
			Work:     northstar.Time(*workHours) * northstar.Hour,
			Overhead: northstar.Time(*deltaMin) * northstar.Minute,
			Restart:  10 * northstar.Minute,
			MTBF:     mtbf,
			Interval: northstar.Hour,
		}
		young := northstar.YoungInterval(c.Overhead, mtbf)
		opt, res, err := c.OptimalInterval(nil, 150, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%d\t%v\t%.3f\t%v\t%v\t%.0f%%\n",
			n, mtbf, sys.AllUpAvailability(), young, opt, res.UsefulFraction*100)
	}
	w.Flush()

	fmt.Println("\nwithout checkpointing, a week of work on 8192 nodes would essentially never finish;")
	fmt.Println("with the optimal interval the machine still loses a large slice of its capacity —")
	fmt.Println("the keynote's case for fault recovery as a first-class system-software responsibility.")
}
