// Command disttrain-preprocd runs the disaggregated data preprocessing
// producer: a TCP service that decodes, resizes and packs multimodal
// samples on CPU, applies both reordering levels, and streams
// training-ready microbatches to GPU consumers (§5.1).
//
// -addr accepts a comma-separated list to run a whole producer pool in
// one process — each address gets its own independent (stateless)
// server, the layout a consumer-side preprocess.Service load-balances
// and fails over across (disttrain-sim -preproc registers one tenant
// on such a service). A Service tenant fetches at its own DP width,
// so -dp does not have to match the trainer's: it sizes the split a
// bare preprocess.Client fetches, and the default worker count.
//
// Examples:
//
//	disttrain-preprocd -addr :7420 -batch 128 -dp 8 -reorder
//	disttrain-preprocd -addr :7420,:7421,:7422 -batch 128 -dp 8
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"

	"disttrain/internal/data"
	"disttrain/internal/preprocess"
	"disttrain/internal/prof"
)

func main() {
	var (
		addrs     = flag.String("addr", "127.0.0.1:7420", "listen address, or comma-separated list for a pool")
		batch     = flag.Int("batch", 128, "global batch size")
		dp        = flag.Int("dp", 8, "data-parallel consumer count")
		micro     = flag.Int("micro", 1, "microbatch size")
		reorderOn = flag.Bool("reorder", true, "apply Algorithms 1 and 2")
		stages    = flag.Int("stages", 4, "pipeline stages (for Algorithm 2's interval model)")
		workers   = flag.Int("workers", 0, "preprocessing worker goroutines per producer (0 = 2*dp)")
		readahead = flag.Int("readahead", 2, "iterations to prefetch")
	)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, err := profFlags.Start()
	if err != nil {
		fatal(err)
	}

	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		fatal(err)
	}
	cfg := preprocess.Config{
		Source:         corpus,
		GlobalBatch:    *batch,
		DPSize:         *dp,
		Microbatch:     *micro,
		Reorder:        *reorderOn,
		PipelineStages: *stages,
		Workers:        *workers,
		Readahead:      *readahead,
	}

	var servers []*preprocess.Server
	var listeners []net.Listener
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, addr := range strings.Split(*addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		srv, err := preprocess.NewServer(cfg)
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fatal(err)
		}
		servers = append(servers, srv)
		listeners = append(listeners, ln)
		fmt.Printf("disttrain-preprocd: serving %d-sample batches to %d consumers on %s (reorder=%v)\n",
			*batch, *dp, ln.Addr(), *reorderOn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Serve returns nil on clean shutdown; a real error is
			// reported immediately — the pool keeps serving from its
			// other members, but the operator must see the degradation.
			if err := srv.Serve(ln); err != nil {
				failed.Store(true)
				fmt.Fprintf(os.Stderr, "disttrain-preprocd: producer on %s died: %v\n", ln.Addr(), err)
			}
		}()
	}
	if len(servers) == 0 {
		fatal(fmt.Errorf("no listen addresses in %q", *addrs))
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt)
	go func() {
		<-done
		fmt.Println("\ndisttrain-preprocd: shutting down")
		// The server closes first so its Serve loop sees a clean
		// shutdown (not an accept error) when the listener follows.
		for i := range servers {
			servers[i].Close()
			listeners[i].Close()
		}
	}()
	wg.Wait()
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if failed.Load() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-preprocd:", err)
	os.Exit(1)
}
