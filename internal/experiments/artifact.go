package experiments

// Artifact outputs: the paper's artifact (Appendix A, Table VII)
// produces three deliverables from its notebook — the last columns of
// Table VIII as CSV, the Fig. 12 series, and the cluster/datacenter
// savings summaries. WriteArtifacts regenerates the same files from
// this reproduction.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/greensku/gsf/internal/report"
)

// ArtifactFiles are the outputs of Table VII, in the artifact's naming.
var ArtifactFiles = []string{
	"Table_VIII.csv",
	"Figure_12.csv",
	"cluster_savings.txt",
	"dc_savings.txt",
	"Dynamic_CI.csv",
	"Frontier.csv",
}

// WriteArtifacts regenerates the artifact's output files into dir and
// returns the paths written. quick trims the carbon-intensity sweep.
func WriteArtifacts(dir string, quick bool) ([]string, error) {
	return WriteArtifactsContext(context.Background(), dir, quick)
}

// WriteArtifactsContext is WriteArtifacts with cancellation; the
// underlying carbon-intensity sweep runs on the evaluation engine.
func WriteArtifactsContext(ctx context.Context, dir string, quick bool) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	writeCSV := func(name string, header []string, rows [][]string) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = report.WriteCSV(f, header, rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			written = append(written, path)
		}
		return err
	}

	// Table_VIII.csv: the savings columns under the open dataset.
	rows, err := SavingsTable("open-source")
	if err != nil {
		return nil, err
	}
	csvRows := make([][]string, 0, len(rows))
	for _, r := range rows {
		csvRows = append(csvRows, []string{
			r.SKU,
			fmt.Sprintf("%.3f", r.Operational),
			fmt.Sprintf("%.3f", r.Embodied),
			fmt.Sprintf("%.3f", r.Total),
		})
	}
	if err := writeCSV("Table_VIII.csv", []string{"sku", "operational_savings", "embodied_savings", "total_savings"}, csvRows); err != nil {
		return nil, err
	}

	// Figure_12.csv + savings summaries from the open-data CI sweep.
	opt := DefaultCISweepOptions("open-source")
	if quick {
		opt.CIs = opt.CIs[:4]
	}
	sweep, err := CISweepContext(ctx, opt)
	if err != nil {
		return nil, err
	}
	header := []string{"carbon_intensity_kg_per_kwh", "GreenSKU-Efficient", "GreenSKU-CXL", "GreenSKU-Full"}
	figRows := make([][]string, 0, len(sweep.CIs))
	for i, ci := range sweep.CIs {
		figRows = append(figRows, []string{
			fmt.Sprintf("%.3f", float64(ci)),
			fmt.Sprintf("%.4f", sweep.Savings["GreenSKU-Efficient"][i]),
			fmt.Sprintf("%.4f", sweep.Savings["GreenSKU-CXL"][i]),
			fmt.Sprintf("%.4f", sweep.Savings["GreenSKU-Full"][i]),
		})
	}
	if err := writeCSV("Figure_12.csv", header, figRows); err != nil {
		return nil, err
	}

	clusterPath := filepath.Join(dir, "cluster_savings.txt")
	msg := fmt.Sprintf("average cluster-level savings: %.1f%% (artifact reports 14%%)\n",
		sweep.AvgClusterSavings*100)
	if err := os.WriteFile(clusterPath, []byte(msg), 0o644); err != nil {
		return nil, err
	}
	written = append(written, clusterPath)

	dcPath := filepath.Join(dir, "dc_savings.txt")
	msg = fmt.Sprintf("overall data center-level savings: %.1f%% (artifact reports 7%%)\n",
		sweep.DCSavings*100)
	if err := os.WriteFile(dcPath, []byte(msg), 0o644); err != nil {
		return nil, err
	}
	written = append(written, dcPath)

	// Dynamic_CI.csv: the temporal-scheduling extension study.
	dynOpt := DefaultDynCIOptions()
	if quick {
		dynOpt.Traces = 6
	}
	dyn, err := DynCIContext(ctx, dynOpt)
	if err != nil {
		return nil, err
	}
	dynHeader, dynRows := dyn.CSVRows()
	if err := writeCSV("Dynamic_CI.csv", dynHeader, dynRows); err != nil {
		return nil, err
	}

	// Frontier.csv: the design-space search with the paper's five SKUs
	// classified against the frontier.
	frontOpt := DefaultFrontierOptions()
	if quick {
		frontOpt = QuickFrontierOptions()
	}
	front, err := FrontierContext(ctx, frontOpt)
	if err != nil {
		return nil, err
	}
	frontHeader, frontRows := front.CSVRows()
	if err := writeCSV("Frontier.csv", frontHeader, frontRows); err != nil {
		return nil, err
	}
	return written, nil
}
