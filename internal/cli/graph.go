package cli

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/pg"
	"repro/internal/snapfile"
)

// OpenGraph opens the property graph at path for reading, in either encoding
// the tools write: a snapshot (kggen -snap, kgsnap, kgserve's /compact —
// recognised by its magic, mapped rather than parsed, so a 10⁷-edge graph
// opens in milliseconds) or property-graph JSON, frozen after the parse.
// "-" reads standard input. A snapshot's mapping lives as long as the
// process: the view is for a command that opens its input and exits.
func OpenGraph(path string) (*pg.Frozen, error) {
	if path != "-" && IsSnapshot(path) {
		sf, err := snapfile.Open(path)
		if err != nil {
			return nil, err
		}
		return sf.Frozen, nil
	}
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	br := bufio.NewReader(in)
	if hdr, _ := br.Peek(len(snapfile.Magic)); snapfile.Sniff(hdr) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("reading snapshot from standard input: %w", err)
		}
		sf, err := snapfile.Decode(data)
		if err != nil {
			return nil, err
		}
		return sf.Frozen, nil
	}
	g, err := pg.ReadJSON(br)
	if err != nil {
		return nil, err
	}
	return pg.FreezeView(g)
}

// IsSnapshot sniffs the snapshot magic at the head of the file at path,
// without consuming it; an unreadable file is not a snapshot (the JSON
// loader reports why it cannot be opened).
func IsSnapshot(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [len(snapfile.Magic)]byte
	n, _ := f.Read(hdr[:])
	return snapfile.Sniff(hdr[:n])
}
