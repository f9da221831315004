package experiments

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
)

// ReadJournalKeys reports the cell keys currently recorded in the journal
// at path, without opening it for appends; the journal tests read it.
func ReadJournalKeys(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	var keys []string
	for i, line := range lines[1:] {
		if line == "" || (i == len(lines)-2 && !strings.HasSuffix(string(data), "\n")) {
			continue
		}
		var rec cellRecord
		if err := json.Unmarshal([]byte(line), &rec); err == nil && rec.Key != "" {
			keys = append(keys, rec.Key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}
