// Package obstest checks Prometheus text exposition (format 0.0.4) for
// conformance, for the tests of every package that serves /metrics.
package obstest

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// pair matches one label: its name, and its value with only the three
// escapes format 0.0.4 defines.
const pair = `([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\[\\"n])*)"`

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{((?:` + pair + `(?:,` + pair + `)*,?)?)\})? (\S+)$`)
	labelPair  = regexp.MustCompile(pair)
	unescape   = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// sampleSuffixes are the sample names a family of each type may use,
// after the family name. Only the types /metrics emits are accepted.
var sampleSuffixes = map[string][]string{
	"counter":   {""},
	"gauge":     {""},
	"histogram": {"_bucket", "_sum", "_count"},
}

// CheckExposition returns the first way text breaks the format, or nil:
//   - each family has one # HELP and one # TYPE, before its samples, and
//     its type is counter, gauge or histogram;
//   - no family name appears twice, and no series either;
//   - every sample line parses: name, optional labels, one float value;
//   - label values are valid UTF-8 and use only the escapes \\, \" and \n;
//   - histogram le bounds ascend and bucket counts never fall;
//   - each histogram's +Inf bucket equals its _count.
func CheckExposition(text string) error {
	type family struct {
		help, samples bool
		kind          string // from # TYPE
	}
	type histogram struct{ le, bucket, count float64 }
	fams := map[string]*family{}
	series := map[string]bool{}
	hists := map[string]*histogram{}
	var cur string // the family whose block is open
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(format string, a ...any) error {
			return fmt.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, a...))
		}
		if !utf8.ValidString(line) {
			return fail("not valid UTF-8")
		}
		if meta := strings.SplitN(line, " ", 4); meta[0] == "#" {
			if len(meta) < 4 || meta[1] != "HELP" && meta[1] != "TYPE" {
				return fail("malformed metadata line")
			}
			fam := fams[meta[2]]
			if fam == nil {
				fam = &family{}
				fams[meta[2]], cur = fam, meta[2]
			} else if meta[2] != cur {
				return fail("family %s appears twice", meta[2])
			}
			if fam.samples || meta[1] == "HELP" && fam.help || meta[1] == "TYPE" && fam.kind != "" {
				return fail("# %s repeated or after the family's samples", meta[1])
			}
			if meta[1] == "HELP" {
				fam.help = true
				continue
			}
			if _, ok := sampleSuffixes[meta[3]]; !ok {
				return fail("unknown type %q", meta[3])
			}
			fam.kind = meta[3]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return fail(`unparsable sample, or a label escape other than \\, \" and \n`)
		}
		v, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err != nil {
			return fail("value: %v", err)
		}
		fam := fams[cur]
		if fam == nil || !fam.help || fam.kind == "" {
			return fail("sample before its family's # HELP and # TYPE")
		}
		suffix, ok := strings.CutPrefix(m[1], cur)
		if !ok || !slices.Contains(sampleSuffixes[fam.kind], suffix) {
			return fail("sample outside its family block (open family %s)", cur)
		}
		fam.samples = true
		var labels []string
		le := ""
		for _, p := range labelPair.FindAllStringSubmatch(m[2], -1) {
			if p[1] == "le" && suffix == "_bucket" {
				le = unescape.Replace(p[2])
			} else {
				labels = append(labels, p[1]+"="+strconv.Quote(unescape.Replace(p[2])))
			}
		}
		sort.Strings(labels)
		key := cur + "{" + strings.Join(labels, ",") + "}"
		if series[m[1]+key+le] {
			return fail("series appears twice")
		}
		series[m[1]+key+le] = true
		if fam.kind != "histogram" {
			continue
		}
		h := hists[key]
		if h == nil {
			h = &histogram{le: math.Inf(-1), count: -1}
			hists[key] = h
		}
		switch suffix {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || bound <= h.le || v < h.bucket {
				return fail("le bounds must ascend and bucket counts never fall")
			}
			h.le, h.bucket = bound, v
		case "_count":
			h.count = v
		}
	}
	for key, h := range hists {
		if !math.IsInf(h.le, 1) || h.bucket != h.count {
			return fmt.Errorf("histogram %s: last bucket le=%v holds %v, _count is %v", key, h.le, h.bucket, h.count)
		}
	}
	return nil
}
