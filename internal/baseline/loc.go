package baseline

import (
	_ "embed"
	"strings"
)

// Embedded sources let the evaluation measure the real size of the
// baseline implementations (§4.3's lines-of-code comparison).

//go:embed labels.go
var labelsSource string

//go:embed snvs.go
var snvsSource string

// LabelsLoC is the measured size of the full-recompute labeling code.
func LabelsLoC() int { return codeLines(extractFunc(labelsSource, "func ComputeLabels")) }

// SNVSImperativeLoC is the measured size of the imperative snvs
// controller (state types + full recomputation + diff).
func SNVSImperativeLoC() int { return codeLines(snvsSource) }

// extractFunc returns the source of one top-level function (from its
// signature to the closing brace at column zero).
func extractFunc(src, sig string) string {
	i := strings.Index(src, sig)
	if i < 0 {
		return ""
	}
	j := strings.Index(src[i:], "\n}")
	if j < 0 {
		return src[i:]
	}
	return src[i : i+j+2]
}

// codeLines counts non-blank, non-comment-only lines.
func codeLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}
