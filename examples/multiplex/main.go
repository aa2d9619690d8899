// Multiplex: the wire protocol v3 transport in action. One TCP connection
// carries many concurrent requests — each frame tagged with a correlation
// ID, responses completing out of order — so a slow analytical query never
// blocks fast ingest sharing the socket, writer batches overlap instead of
// waiting turn by turn, and a windowed query cursor pages its windows over
// the same socket.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	timecrypt "repro"
)

func main() {
	ctx := context.Background()

	// Untrusted side: engine behind a real TCP front end on localhost.
	engine, err := timecrypt.NewEngine(timecrypt.NewMemStore(), timecrypt.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	srv := timecrypt.NewTCPServer(engine, func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go timecrypt.ServeTCP(ctx, srv, lis)
	defer srv.Close()

	// Trusted side: ONE multiplexed connection for everything below.
	tr, err := timecrypt.DialTCP(lis.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	owner := timecrypt.NewOwner(tr)

	epoch := time.Now().Add(-24 * time.Hour).UnixMilli()
	stream, err := owner.CreateStream(ctx, timecrypt.StreamOptions{
		UUID:     "sensor/温度-0",
		Epoch:    epoch,
		Interval: 10_000,
		Meta:     "demo stream for the multiplexed transport",
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pipelined ingest: on a multiplexed transport the writer issues up
	// to MaxInFlight batch envelopes before the first acknowledgement
	// returns — submission order still fixes the chunk order, because the
	// server schedules same-stream work in arrival order.
	start := time.Now()
	w, err := stream.Writer(ctx, timecrypt.WriterOptions{BatchChunks: 32, MaxInFlight: 8})
	if err != nil {
		log.Fatal(err)
	}
	const chunks = 2000
	for c := 0; c < chunks; c++ {
		ts := epoch + int64(c)*10_000
		if err := w.AppendChunk([]timecrypt.Point{{TS: ts, Val: int64(20 + c%7)}, {TS: ts + 5000, Val: int64(21 + c%5)}}); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d chunks over one pipelined connection in %v\n", chunks, time.Since(start).Round(time.Millisecond))

	// Concurrent queries on the same connection: a whole-day scan and a
	// point lookup issued together; the lookup's response overtakes the
	// scan's (out-of-order completion, matched by correlation ID).
	type answer struct {
		what string
		res  timecrypt.StatResult
		err  error
	}
	answers := make(chan answer, 2)
	go func() {
		res, err := stream.StatRange(ctx, epoch, epoch+chunks*10_000)
		answers <- answer{"full-day scan", res, err}
	}()
	go func() {
		res, err := stream.StatRange(ctx, epoch, epoch+60_000)
		answers <- answer{"first-minute lookup", res, err}
	}()
	for i := 0; i < 2; i++ {
		a := <-answers
		if a.err != nil {
			log.Fatal(a.err)
		}
		fmt.Printf("%-19s -> count=%d mean=%.1f\n", a.what, a.res.Count, a.res.Mean)
	}

	// Paged cursor: one AggRange round trip per page of hourly windows,
	// sharing the connection with everything else.
	it := stream.Query().Range(epoch, epoch+chunks*10_000).Window(360).Iter(ctx)
	defer it.Close()
	hours := 0
	for it.Next() {
		hours++
	}
	if err := it.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paged %d hourly windows over the same connection\n", hours)
}
