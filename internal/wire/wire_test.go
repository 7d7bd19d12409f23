package wire

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"
)

func frame(magic, typ uint32) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b, magic)
	binary.BigEndian.PutUint32(b[4:], typ)
	return b
}

// TestNames: every row's header names its message, each name once; a
// type number no row lists — retired, future, or under the other
// protocol's magic — and a frame too short for a header name nothing.
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Messages {
		if seen[m.Name] || m.Name == "" {
			t.Errorf("name %q empty or listed twice", m.Name)
		}
		seen[m.Name] = true
		if got := Name(append(frame(m.Magic, m.Type), 0, 0, 0, 0)); got != m.Name {
			t.Errorf("%#x/%d: Name = %q, want %q", m.Magic, m.Type, got, m.Name)
		}
		if got := Name(frame(m.Magic, m.Type)[:7]); got != "" {
			t.Errorf("a 7-byte %s header is named %q", m.Name, got)
		}
	}
	for _, c := range []struct {
		magic uint32
		types []uint32
	}{
		{SessionMagic, []uint32{0, Commit + 1, 99}},
		{StreamMagic, []uint32{0, 1, 2, 4, 5, 7, 8, Commit}},
		{0x48504d31, []uint32{Offer, Data}}, // "HPM1", neither magic
	} {
		for _, typ := range c.types {
			if got := Name(frame(c.magic, typ)); got != "" {
				t.Errorf("%#x/%d is named %q; no protocol speaks it", c.magic, typ, got)
			}
		}
	}
	if got := Name(nil); got != "" {
		t.Errorf("an empty frame is named %q", got)
	}
}

// TestDesignFrameTable holds DESIGN.md §8's frame table to Messages: row
// for row the magic, the type number, the message and the side that
// sends it (→ the initiator, ← the responder).
func TestDesignFrameTable(t *testing.T) {
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(b)
	start := strings.Index(design, "\n## 8. ")
	end := strings.Index(design, "\n## 9. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §8 followed by §9")
	}
	var got []string
	for _, line := range strings.Split(design[start:end], "\n") {
		if strings.HasPrefix(line, "| `MSES` |") || strings.HasPrefix(line, "| `MSTR` |") {
			cols := strings.Split(line, "|")
			got = append(got, strings.Join(strings.Fields(strings.Join(cols[1:5], " ")), " "))
		}
	}
	magic := map[uint32]string{SessionMagic: "`MSES`", StreamMagic: "`MSTR`"}
	dir := map[Side]string{Initiator: "→", Responder: "←"}
	var want []string
	for _, m := range Messages {
		want = append(want, fmt.Sprintf("%s %d %s %s", magic[m.Magic], m.Type, strings.ToUpper(m.Name), dir[m.From]))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("DESIGN.md §8's frame table lists\n  %s\nwire.Messages is\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
