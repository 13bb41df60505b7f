// Command volcano-worker is volcano-serve with four flags: a node that
// joins a coordinator's fleet. `volcano-serve -db F -coordinator ADDR`
// is the same process; prefer it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/node"
)

func main() {
	var o node.Options
	flag.StringVar(&o.DB, "db", "", "durable database file — the same database the coordinator serves (required)")
	flag.StringVar(&o.Coordinator, "coordinator", "", "coordinating node to register with (empty = join no fleet)")
	flag.StringVar(&o.Addr, "addr", "127.0.0.1:0", "HTTP listen address")
	flag.IntVar(&o.Frames, "frames", 4096, "buffer pool frames shared by all queries and fragments")
	flag.Parse()
	if err := node.Run(o); err != nil {
		fmt.Fprintln(os.Stderr, "volcano-worker:", err)
		os.Exit(1)
	}
}
