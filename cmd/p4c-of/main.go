// Command p4c-of compiles a P4 subset program onto an OpenFlow-style
// pipeline (the paper's p4c-of component) and prints the table layout and
// the flows below the controller's entries (miss and pass-through flows)
// in an ovs-ofctl-like format.
//
//	p4c-of [-p4 program.p4]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/p4"
	"repro/internal/p4of"
	"repro/internal/snvs"
)

func main() {
	p4Path := flag.String("p4", "", "P4 subset program (default: built-in snvs.p4)")
	flag.Parse()

	var prog *p4.Program
	if *p4Path != "" {
		src, err := os.ReadFile(*p4Path)
		if err != nil {
			log.Fatalf("reading program: %v", err)
		}
		prog, err = p4.ParseProgram("pipeline", string(src))
		if err != nil {
			log.Fatalf("parsing program: %v", err)
		}
	} else {
		prog = snvs.Pipeline()
	}

	pl, err := p4of.Compile(prog)
	if err != nil {
		log.Fatalf("p4c-of: %v", err)
	}
	fmt.Printf("// program %q compiled to %d OpenFlow tables\n", pl.Program, len(pl.Tables))
	for _, ct := range pl.Tables {
		guard := strings.Join(ct.Guard, ",")
		if guard == "" {
			guard = "*"
		}
		next := "end"
		if ct.Next >= 0 {
			next = fmt.Sprintf("table %d", ct.Next)
		}
		fmt.Printf("// table %2d: %-16s guard=%-28s then %s\n", ct.ID, ct.Name, guard, next)
	}
	fmt.Println("// miss and pass-through flows (controller entries add higher-priority flows):")
	var flows []p4of.Flow
	for _, ct := range pl.Tables {
		miss, err := pl.MissFlows(ct.Name)
		if err != nil {
			log.Fatal(err)
		}
		flows = append(flows, miss...)
	}
	fmt.Print(p4of.Render(flows))
}
