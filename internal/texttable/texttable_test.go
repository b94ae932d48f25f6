package texttable

import (
	"strings"
	"testing"
)

func TestWriteAlignsColumns(t *testing.T) {
	var b strings.Builder
	b.WriteString("title\n")
	Write(&b, []string{"a", "long header"}, [][]string{{"wide cell", "1"}, {"x"}})
	want := "title\n" +
		"a          long header\n" +
		"---------  -----------\n" +
		"wide cell  1          \n" +
		"x        \n"
	if got := b.String(); got != want {
		t.Fatalf("got\n%q\nwant\n%q", got, want)
	}
}
