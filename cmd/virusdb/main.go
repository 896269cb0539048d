// Command virusdb inspects a virus database produced by dstress searches:
// it lists the recorded experiments or dumps the strongest viruses of one
// experiment, the way the paper's framework reviews its recorded campaign.
//
// Usage:
//
//	virusdb -db viruses.json                      # list experiments
//	virusdb -db viruses.json -experiment data64/max-ce/55C [-top 10]
//	virusdb -db viruses.json -compact             # offline store compaction
//
// With -compact, a database the strict open refuses as damaged is opened in
// salvage mode instead (the readable records are kept, the loss is reported
// on stderr) so the compaction can reclaim the dropped space.
//
// -db names a store directory. A single-file database from a build before
// the segmented store is refused; this command built from commit 67701f1
// converts one with -compact. Every run closes the database, which writes
// its index snapshot when the one on disk is missing or stale, so the next
// open skips decoding the records it names.
package main

import (
	"flag"
	"fmt"
	"os"

	"dstress/internal/virusdb"
)

func main() {
	dbPath := flag.String("db", "viruses.json", "virus database directory")
	experiment := flag.String("experiment", "", "experiment to dump")
	top := flag.Int("top", 10, "number of strongest viruses to show")
	compact := flag.Bool("compact", false,
		"rewrite the store into one fresh segment (reclaims space dropped by salvage)")
	flag.Parse()

	db, err := virusdb.Open(*dbPath)
	if err != nil {
		// -compact is the recovery tool for damaged stores, so a strict-open
		// failure must not stop it: salvage what is readable and report the
		// loss, then let the compaction below reclaim the dropped space.
		if !*compact {
			fatal(err)
		}
		var dropped int
		db, dropped, err = virusdb.OpenSalvage(*dbPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "virusdb: %s: damaged store salvaged, %d records dropped\n",
			*dbPath, dropped)
	}
	err = run(db, *dbPath, *experiment, *top, *compact)
	// Closing writes the index snapshot the next open reads.
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

// run compacts the database or lists it: its experiments, or one
// experiment's strongest records.
func run(db *virusdb.DB, dbPath, experiment string, top int, compact bool) error {
	if compact {
		if err := db.Compact(); err != nil {
			return err
		}
		fmt.Printf("%s: compacted %d records\n", dbPath, db.Len())
		return nil
	}
	if db.Len() == 0 {
		fmt.Printf("%s: empty database\n", dbPath)
		return nil
	}

	if experiment == "" {
		fmt.Printf("%s: %d viruses across %d experiments\n\n",
			dbPath, db.Len(), len(db.Experiments()))
		for _, name := range db.Experiments() {
			best, _, err := db.Best(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-32s %3d viruses, best fitness %10.2f (TREFP %.3fs, VDD %.3fV, %.0f°C)\n",
				name, db.Count(name), best.Fitness, best.TREFP, best.VDD, best.TempC)
		}
		return nil
	}

	recs, err := db.TopN(experiment, top)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no records for experiment %q", experiment)
	}
	fmt.Printf("%s: top %d of %d viruses\n", experiment, len(recs),
		db.Count(experiment))
	for i, r := range recs {
		chromo := r.Bits
		if chromo == "" {
			chromo = fmt.Sprint(r.Ints)
		}
		if len(chromo) > 72 {
			chromo = chromo[:72] + "..."
		}
		fmt.Printf("%2d. fitness %10.2f  CE %8.2f  UE %.2f  gen %3d  %s\n",
			i+1, r.Fitness, r.MeanCE, r.UEFrac, r.Generation, chromo)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "virusdb:", err)
	os.Exit(1)
}
