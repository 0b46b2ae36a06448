// Flag-level helpers shared by the fleet binaries (mapd, mapfleet):
// parsing the name=url peer list every member must agree on.

package fleet

import (
	"fmt"
	"strings"
)

// ParsePeers parses a "name=url,name=url" replica list, the flag syntax
// shared by mapd -peers and mapfleet -replicas. Names must be unique and
// URLs non-empty; trailing slashes are trimmed so path joins stay clean.
func ParsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("fleet: bad peer %q (want name=url)", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate peer name %q", name)
		}
		out[name] = strings.TrimRight(url, "/")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: empty peer list")
	}
	return out, nil
}
