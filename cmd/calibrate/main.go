// Command calibrate prints, for one application across its input sizes,
// the execution time of the default mapping and the speedups of the custom
// and AutoMap-CCD mappings over it — the raw material of Figure 6. It is
// the tool used to calibrate the workload generators' cost constants
// against the paper's reported shapes.
//
// Usage:
//
//	calibrate -app circuit -cluster shepard -nodes 1 [-algo ccd] [-inputs n50w200,...]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/mapping"
	"automap/internal/search"
)

func main() {
	log.SetFlags(0)
	appName := flag.String("app", "circuit", "application name")
	clusterName := flag.String("cluster", "shepard", "cluster: shepard, lassen, or perlmutter")
	nodes := flag.Int("nodes", 1, "machine nodes")
	inputs := flag.String("inputs", "", "comma-separated inputs (default: app's list for -nodes)")
	budget := flag.Float64("budget", 0, "search budget in simulated seconds (0 = unlimited)")
	flag.Parse()

	app, err := apps.Get(*appName)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := cluster.Spec(*clusterName)
	if err != nil {
		log.Fatal(err)
	}
	var list []string
	if *inputs != "" {
		list = strings.Split(*inputs, ",")
	} else {
		list = app.Inputs[*nodes]
		if len(list) == 0 {
			list = app.Inputs[1]
		}
	}

	m := cluster.Build(spec, *nodes)
	opts := driver.DefaultOptions()
	fmt.Printf("%-18s %12s %12s %10s  %s\n", "input", "default(s)", "ccd(s)", "speedup", "notes")
	for _, in := range list {
		g, err := app.Build(in, *nodes)
		if err != nil {
			log.Fatal(err)
		}
		defMap := mapping.Default(g, m.Model())
		defSec, err := driver.MeasureMapping(m, g, defMap, 31, opts.NoiseSigma, 7777)
		if err != nil {
			fmt.Printf("%-18s default fails: %v\n", in, err)
			continue
		}
		rep, err := driver.Search(m, g, search.NewCCD(), opts, search.Budget{MaxSearchSec: *budget})
		if err != nil {
			fmt.Printf("%-18s search fails: %v\n", in, err)
			continue
		}
		fmt.Printf("%-18s %12.6f %12.6f %10.2f  sugg=%d eval=%d searchSec=%.0f\n",
			in, defSec, rep.FinalSec, defSec/rep.FinalSec, rep.Suggested, rep.Evaluated, rep.SearchSec)
		if os.Getenv("CAL_VERBOSE") != "" {
			fmt.Println(rep.Best.Describe(g))
		}
	}
}
