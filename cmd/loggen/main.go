// Command loggen generates a value-log replication stream from one of the
// benchmark workloads and writes it to a file (or stdout) in the wire
// format, for inspection, archival or replay by cmd/replayd.
//
// Usage:
//
//	loggen -workload tpcc -txns 10000 -o tpcc.wal
//	loggen -workload bustracker -txns 5000 -dump | head
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"aets/internal/primary"
	"aets/internal/wal"
	"aets/internal/workload"
)

func main() {
	var (
		name  = flag.String("workload", "tpcc", "workload: tpcc, chbench, seats, bustracker")
		txns  = flag.Int("txns", 10000, "number of transactions to generate")
		sf    = flag.Int("sf", 20, "scale factor (tpcc/chbench)")
		seed  = flag.Int64("seed", 1, "generator seed")
		out   = flag.String("o", "", "output file (default stdout)")
		dump  = flag.Bool("dump", false, "print a human-readable dump instead of binary")
		epoch = flag.Int("epoch", 2048, "epoch size in transactions (the output is the same for any size)")
	)
	flag.Parse()

	var gen workload.Generator
	switch *name {
	case "tpcc":
		gen = workload.NewTPCC(*sf)
	case "chbench":
		gen = workload.NewCHBench(*sf)
	case "seats":
		gen = workload.NewSEATS()
	case "bustracker":
		gen = workload.NewBusTracker()
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}

	p := primary.New(gen, *seed)
	encs := p.GenerateEncoded(*txns, *epoch)

	if *dump {
		for _, enc := range encs {
			entries, err := wal.DecodeStream(enc.Buf, enc.FirstLSN)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, e := range entries {
				switch e.Type {
				case wal.TypeBegin, wal.TypeCommit:
					fmt.Fprintf(w, "lsn=%-8d %-6s txn=%d ts=%d\n", e.LSN, e.Type, e.TxnID, e.Timestamp)
				default:
					fmt.Fprintf(w, "lsn=%-8d %-6s txn=%d table=%d row=%d cols=%d\n",
						e.LSN, e.Type, e.TxnID, e.Table, e.RowKey, len(e.Columns))
				}
			}
		}
		return
	}

	var total int
	for _, enc := range encs {
		n, err := w.Write(enc.Buf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		total += n
	}
	fmt.Fprintf(os.Stderr, "wrote %d epochs, %d txns, %d bytes\n", len(encs), *txns, total)
}
