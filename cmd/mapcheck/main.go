// Command mapcheck statically analyzes a (program, machine, mapping) triple
// and reports coded diagnostics (AM0001–AM0010) without executing anything.
//
//	mapcheck -app circuit -machine shepard
//	mapcheck -app stencil -machine lassen -nodes 4 -mapping m.json
//	mapcheck -app pennant -machine shepard -min info -pass race,feasibility
//
// The exit status is 0 when no Error-severity diagnostics are present, 1
// when at least one Error is reported, and 2 on usage or I/O failure.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"automap/internal/analyze"
	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/mapping"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mapcheck: ")
	fs := flag.NewFlagSet("mapcheck", flag.ExitOnError)
	appName := fs.String("app", "", "application: "+fmt.Sprint(apps.Names()))
	input := fs.String("input", "", "input size string (default: the app's first input for -nodes)")
	machineName := fs.String("machine", "shepard", "machine model: shepard, lassen, perlmutter, or a JSON machine-spec file")
	nodes := fs.Int("nodes", 1, "number of machine nodes")
	mappingFile := fs.String("mapping", "", "mapping JSON file to check (default: the default mapper's mapping)")
	minSev := fs.String("min", "warn", "minimum severity to print: info, warn, or error")
	passList := fs.String("pass", "", "comma-separated pass names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mapcheck -app <name> [-machine shepard] [-nodes N] [-mapping m.json]")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	if *appName == "" {
		fs.Usage()
		os.Exit(2)
	}
	min, ok := map[string]analyze.Severity{
		"info": analyze.Info, "warn": analyze.Warn, "error": analyze.Error,
	}[*minSev]
	if !ok {
		log.Println("-min must be info, warn, or error")
		os.Exit(2)
	}

	app, err := apps.Get(*appName)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	if *input == "" {
		if list := app.Inputs[*nodes]; len(list) > 0 {
			*input = list[0]
		} else {
			log.Printf("no -input given and no default for %d node(s)", *nodes)
			os.Exit(2)
		}
	}
	g, err := app.Build(*input, *nodes)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}

	spec, err := cluster.Spec(*machineName)
	if err != nil {
		spec, err = cluster.LoadSpec(*machineName)
		if err != nil {
			log.Printf("-machine must be shepard, lassen, perlmutter, or a machine-spec file: %v", err)
			os.Exit(2)
		}
	}
	m := cluster.Build(spec, *nodes)

	var mp *mapping.Mapping
	if *mappingFile != "" {
		mp, err = mapping.Load(*mappingFile, g)
		if err != nil {
			log.Println(err)
			os.Exit(2)
		}
	} else {
		mp = mapping.Default(g, m.Model())
	}

	passes := analyze.DefaultPasses()
	if *passList != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*passList, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var selected []analyze.Pass
		for _, p := range passes {
			if want[p.Name()] {
				selected = append(selected, p)
				delete(want, p.Name())
			}
		}
		if len(want) > 0 {
			var unknown []string
			for name := range want {
				unknown = append(unknown, name)
			}
			log.Printf("unknown pass(es) %v; available: %v", unknown, passNames(passes))
			os.Exit(2)
		}
		passes = selected
	}

	rep := analyze.Analyze(&analyze.Context{Graph: g, Machine: m, Mapping: mp}, passes...)
	for _, d := range rep.Filter(min) {
		fmt.Println(d.Format(g))
	}
	fmt.Printf("%s on %s ×%d: %d error(s), %d warning(s), %d note(s)\n",
		*appName, *machineName, *nodes,
		rep.Count(analyze.Error), rep.Count(analyze.Warn), rep.Count(analyze.Info))
	if rep.HasErrors() {
		os.Exit(1)
	}
}

func passNames(passes []analyze.Pass) []string {
	out := make([]string, len(passes))
	for i, p := range passes {
		out[i] = p.Name()
	}
	return out
}
