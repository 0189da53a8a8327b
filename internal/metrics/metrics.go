// Package metrics implements the evaluation measures of the paper's §V:
// per-class precision, recall and F1 from a confusion matrix, their
// support-weighted averages (Table III), binary classification metrics for
// the block-level cross-row predictions, and the Isolation Coverage Rate
// (ICR) used in Table IV.
package metrics

import (
	"fmt"
	"sort"
)

// Confusion is a multi-class confusion matrix keyed by integer class labels.
// The zero value is ready to use.
type Confusion struct {
	// counts[actual][predicted] = observations.
	counts map[int]map[int]int
}

// Add records one observation with the given actual and predicted labels.
func (c *Confusion) Add(actual, predicted int) {
	if c.counts == nil {
		c.counts = make(map[int]map[int]int)
	}
	row := c.counts[actual]
	if row == nil {
		row = make(map[int]int)
		c.counts[actual] = row
	}
	row[predicted]++
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// Classes returns the sorted union of all actual and predicted labels.
func (c *Confusion) Classes() []int {
	seen := make(map[int]bool)
	for a, row := range c.counts {
		seen[a] = true
		for p := range row {
			seen[p] = true
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Support returns the number of observations whose actual label is class.
func (c *Confusion) Support(class int) int {
	n := 0
	for _, v := range c.counts[class] {
		n += v
	}
	return n
}

// Report holds precision, recall and F1 for one class (or one binary task).
type Report struct {
	Precision float64
	Recall    float64
	F1        float64
	Support   int
}

// ClassReport computes precision, recall and F1 for one class (one-vs-rest).
// Conventions: precision is 0 when nothing was predicted as the class;
// recall is 0 when the class never occurs; F1 is 0 when both P and R are 0.
func (c *Confusion) ClassReport(class int) Report {
	tp := c.counts[class][class]
	fp := 0
	for a, row := range c.counts {
		if a != class {
			fp += row[class]
		}
	}
	fn := 0
	for p, v := range c.counts[class] {
		if p != class {
			fn += v
		}
	}
	return binaryReport(tp, fp, fn, c.Support(class))
}

func binaryReport(tp, fp, fn, support int) Report {
	r := Report{Support: support}
	if tp+fp > 0 {
		r.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r.Recall = float64(tp) / float64(tp+fn)
	}
	if r.Precision+r.Recall > 0 {
		r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
	}
	return r
}

// WeightedAverage computes the support-weighted average of the per-class
// reports — the "Weighted Average" row of Table III.
func (c *Confusion) WeightedAverage() Report {
	total := c.Total()
	if total == 0 {
		return Report{}
	}
	var out Report
	for _, class := range c.Classes() {
		r := c.ClassReport(class)
		w := float64(r.Support) / float64(total)
		out.Precision += w * r.Precision
		out.Recall += w * r.Recall
		out.F1 += w * r.F1
		out.Support += r.Support
	}
	return out
}

// Binary accumulates binary-classification outcomes, for block-level
// cross-row prediction. The zero value is ready to use.
type Binary struct {
	TP, FP, TN, FN int
}

// Add records one outcome.
func (b *Binary) Add(actual, predicted bool) {
	switch {
	case actual && predicted:
		b.TP++
	case !actual && predicted:
		b.FP++
	case actual && !predicted:
		b.FN++
	default:
		b.TN++
	}
}

// Report returns precision, recall and F1 over the accumulated outcomes,
// with positives as the class of interest.
func (b *Binary) Report() Report {
	return binaryReport(b.TP, b.FP, b.FN, b.TP+b.FN)
}

// Total returns the number of recorded outcomes.
func (b *Binary) Total() int { return b.TP + b.FP + b.TN + b.FN }

// ICR accumulates the Isolation Coverage Rate: the proportion of actual UER
// rows that were preemptively isolated before their failure (§V-A).
type ICR struct {
	// Covered counts UER rows that were isolated before their first UER.
	Covered int `json:"covered"`
	// Total counts all UER rows in scope.
	Total int `json:"total"`
}

// Add records one UER row and whether it was isolated in time.
func (m *ICR) Add(covered bool) {
	m.Total++
	if covered {
		m.Covered++
	}
}

// Rate returns Covered/Total, or 0 when nothing was recorded.
func (m *ICR) Rate() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Covered) / float64(m.Total)
}

// String formats the rate as a percentage, e.g. "19.58%".
func (m *ICR) String() string {
	return fmt.Sprintf("%.2f%%", m.Rate()*100)
}

// Scored accumulates (score, label) pairs for threshold-free ranking
// metrics. The zero value is ready to use.
type Scored struct {
	scores []float64
	labels []bool
}

// Add records one scored observation.
func (s *Scored) Add(score float64, positive bool) {
	s.scores = append(s.scores, score)
	s.labels = append(s.labels, positive)
}

// AUC returns the area under the ROC curve: the probability that a uniformly
// random positive outranks a uniformly random negative, with ties counted as
// half. It returns false when either class is absent.
func (s *Scored) AUC() (float64, bool) {
	type pair struct {
		score float64
		pos   bool
	}
	pairs := make([]pair, len(s.scores))
	pos, neg := 0, 0
	for i, sc := range s.scores {
		pairs[i] = pair{score: sc, pos: s.labels[i]}
		if s.labels[i] {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, false
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].score < pairs[j].score })

	// Rank-sum (Mann-Whitney) with midranks for ties.
	rankSum := 0.0
	i := 0
	for i < len(pairs) {
		j := i
		for j < len(pairs) && pairs[j].score == pairs[i].score {
			j++
		}
		// Tied block occupies ranks i+1..j; everyone gets the midrank.
		midrank := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			if pairs[k].pos {
				rankSum += midrank
			}
		}
		i = j
	}
	u := rankSum - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg)), true
}
