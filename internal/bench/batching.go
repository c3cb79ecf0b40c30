package bench

import (
	"fmt"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
)

// batching is the log-streaming microbenchmark: the same pbzip2-style
// det-section workload (48 blocks, 8 workers, an output commit every 4
// written blocks — without commits the batching win on the commit path is
// invisible) is recorded and replayed at each batch size, and the mailbox
// traffic the replication log generates is measured end to end, 64-byte
// slot headers included. Blocks and tuples must not move with the batch
// size; only how the tuples are packed onto the ring may. msg_pct and
// byte_pct are relative to the first size.
func batching(seed int64, _ bool) (Report, error) {
	report := Report{Exp: "batching", Seed: seed,
		Params: []Label{label("blocks", 48), label("workers", 8), label("commit_every", 4)}}
	var msgs0, bytes0 float64
	// Per-tuple streaming (the paper's prototype), the default, and a batch
	// no flush interval ever fills.
	for i, batch := range []int{1, 8, 32} {
		p, err := batchPoint(seed, batch)
		if err != nil {
			return report, fmt.Errorf("bench: batching at %d: %w", batch, err)
		}
		if i == 0 {
			msgs0, bytes0 = p.Value("messages"), p.Value("bytes")
		}
		p.Values = append(p.Values,
			val("msg_pct", 100*p.Value("messages")/msgs0, "%"),
			val("byte_pct", 100*p.Value("bytes")/bytes0, "%"))
		report.Points = append(report.Points, p)
	}
	return report, nil
}

func batchPoint(seed int64, batch int) (Point, error) {
	app := pbzip2.DefaultConfig()
	app.Workers = 8
	app.MaxBlocks = 48
	app.CommitEvery = 4
	pbzip, stats := pbzipApp(app)
	run, err := runSweep(seed, pbzip, nil, func(c *core.Config) { c.Replication.BatchTuples = batch })
	if err != nil {
		return Point{}, err
	}
	sst := stats[run.sys.Secondary.NS]
	lst, ast := run.log.Stats(), run.acks.Stats()
	return Point{
		Labels: []Label{label("batch_tuples", batch)},
		Values: []Named{
			val("blocks", sst.Blocks, "blocks"),
			val("tuples", run.log.Delivered(), "tuples"),
			val("messages", lst.Messages+ast.Messages, "msgs"), // ring transfers, one header each
			val("log_batches", lst.Batches, ""),                // vectored transfers (>1 tuple)
			val("ack_messages", ast.Messages, ""),              // cumulative acks sent by the replayer
			val("bytes", lst.Bytes+ast.Bytes, "B"),             // payload + header bytes
			val("divergences", run.sys.Secondary.NS.Stats().Divergences, "count"),
			val("sim_ms", ms(sst.FinishedAt), "ms"),
		},
	}, nil
}
