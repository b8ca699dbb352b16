// Command dynamips drives the DynamIPs reproduction pipeline:
//
//	dynamips profiles                      list the built-in ISP profiles
//	dynamips gen atlas [flags]             generate a sanitizable IP-echo dataset (JSONL on stdout)
//	dynamips gen cdn [flags]               generate CDN association tuples (CSV on stdout)
//	dynamips analyze [flags] <series.jsonl>  sanitize + analyze an IP-echo dataset
//	dynamips experiment <name|all> [flags] regenerate a paper table/figure
//	dynamips resume <dir>                  resume an interrupted checkpointed run
//	dynamips serve-echo [-listen addr]     run the IP echo HTTP server
//	dynamips serve-bng [flags]             run the assignment-plane BNG daemon
//	dynamips stats <metrics.json>          render a -metrics dump as a report
//	dynamips watch [flags]                 follow live sketch summaries from a daemon or spill dir
//
// Every generator is seeded; the same flags reproduce identical output.
// Runs started with -checkpoint DIR journal completed work units and can
// be resumed after a crash with 'dynamips resume DIR'; the resumed output
// is byte-identical to an uninterrupted run. 'gen cdn' and 'analyze-cdn'
// run the sharded streaming pipeline in bounded memory (-spill-dir sets
// the scratch location, and analyze-cdn's -shards the partition width).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "profiles":
		err = cmdProfiles(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "analyze-cdn":
		err = cmdAnalyzeCDN(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "resume":
		err = cmdResume(os.Args[2:])
	case "serve-echo":
		err = cmdServeEcho(os.Args[2:])
	case "serve-bng":
		err = cmdServeBNG(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dynamips: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynamips:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: dynamips <command> [flags]

commands:
  profiles                 list built-in ground-truth ISP profiles
  gen atlas|cdn            generate synthetic datasets (stdout)
  analyze <series.jsonl>   sanitize and analyze an IP-echo dataset
  analyze-cdn <assoc.csv>  rerun the CDN analyses on an association file
  experiment <name|all>    regenerate a paper table/figure
  resume <dir>             resume an interrupted checkpointed run
  serve-echo               run the IP echo HTTP server
  serve-bng                run the assignment-plane BNG daemon (paginated
                           /sessions /pools /stats API, checkpointed churn)
  stats <metrics.json>     render a -metrics snapshot as a per-stage report
  watch                    follow live online summaries: -bng URL polls a
                           serve-bng daemon's /sketch endpoint, -spill DIR
                           tails a streaming run's spill directory
                           (-interval, -once)

every command takes -metrics FILE (dump pipeline counters and virtual-time
span timings as JSON); long-running commands take -pprof ADDR (serve
net/http/pprof on ADDR for the run's duration); gen cdn and analyze-cdn
stream through spill files in bounded memory (-spill-dir DIR; analyze-cdn
also takes the partition width -shards N); gen atlas and gen cdn take
-bng URL to pull ground truth from a live serve-bng daemon

run 'dynamips <command> -h' for command flags
`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}
