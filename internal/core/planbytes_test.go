package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestBringupPlanBytesPinned pins the bytes Plan.Encode writes for every
// model's seed-1 bring-up plan under the three scheduled designs that differ
// in what they store, through their SHA-256: a plan is the artifact loaded
// onto the hardware, so a change to how the scheduler holds its state must
// not move one byte of what it ships.
func TestBringupPlanBytesPinned(t *testing.T) {
	want := map[string]string{
		"skipnet/Adyna":           "2ea85707cef1f843941565775cce7f897ba02cddfe58bf4c7db4d8a98819ee86",
		"skipnet/Adyna(static)":   "7051446db3403d9a361271bed322ef8e0c3151584937e19ecf9789f8a4790063",
		"skipnet/full-kernel":     "7e25ad148bd2105783094d4fa55ceb917bb7d6ae1f55d2b521af9efe2ed78ea2",
		"pabee/Adyna":             "351eb18259767d0caca9f49372fbf4920458e74dba603a9f9be00aac16d88f17",
		"pabee/Adyna(static)":     "179a0b0aa0a843da95f03c4582a42c9f1e2d32511e409a1658c43549253771f8",
		"pabee/full-kernel":       "98ec78edefed2e320755a9b3f2efffd871770cef1c7b6fbf40aacb11cd827d25",
		"fbsnet/Adyna":            "964151c59b913d2df7a6f5824d7340a345afc4e39995e59aa1ccd4010f622331",
		"fbsnet/Adyna(static)":    "ab7b50c6cd3aca15be559cd3203940a31a25a595c884c92e1d47cb71d6c26c83",
		"fbsnet/full-kernel":      "a96bacf2c140849119b6fff2593392e09d1483abfe7581618bd9f834a84e13db",
		"tutel-moe/Adyna":         "e29d22ca01b5545fd1608184ed992e29debe9da53f191f94c559559a5768bbf2",
		"tutel-moe/Adyna(static)": "ba7dfa9cb1e79b77c7ccb337a097fd5a530582d7cbd548cf76398797c65fb65f",
		"tutel-moe/full-kernel":   "0ca39656c601805d03dfbf784dff9a981faa2680986206ecb5bf6c001cd7315f",
		"dpsnet/Adyna":            "2a3f074fa0e4d3e06c4763e246fabd9379fa70b874dd1215f6bb319326c54a83",
		"dpsnet/Adyna(static)":    "77fdc6b6fc93e32cd303fced8bb15575cc1f2dd68dda5418e362da5577696fbc",
		"dpsnet/full-kernel":      "27b04d3f1817c3f76c4908ce9ec6a67908bbb2b18469d79b67d98283be4f8457",
		"adavit/Adyna":            "4ee3a2d8fa2ec98b2d8e0f4417126b06f177a8edef59309b7fb9c88cd469141c",
		"adavit/Adyna(static)":    "6b7521f2694f707f1165d6d699c0864a2435eccce1220feb1668fc7a070af40d",
		"adavit/full-kernel":      "cc12ebb22bddcee141c3a9ce690f283657383ee5bf211335f9e9e129c22a258f",
		"ranet/Adyna":             "176959622ac4b3441e567de9811c0c846e07fc9d30563012dfdc0e4f5c1036cb",
		"ranet/Adyna(static)":     "ccf867740ccb1aefb9dfd6e0653a5b9980fef8ced8cfe566339cd3ff0345a53f",
		"ranet/full-kernel":       "8646ad85b20f1b11af908db7c23258f9ce92e8239622df2fd906a9b1b9751b17",
		"gcn/Adyna":               "6c6d83962fd90c41fcf12fb7287e0a1d91d8d31f32602886c0ef68cac2f6adc9",
		"gcn/Adyna(static)":       "caf19245761eda5ff7bddbd18c24b6ce748e9d0c3a130fa6239d2c8b38e4fc9e",
		"gcn/full-kernel":         "08121af20461736adb46089860118135d786b7f791ecc1510526f3a27e517c68",
	}
	rc := DefaultRunConfig()
	for _, model := range []string{"skipnet", "pabee", "fbsnet", "tutel-moe", "dpsnet", "adavit", "ranet", "gcn"} {
		for _, d := range []Design{DesignAdyna, DesignAdynaStatic, DesignFullKernel} {
			s, err := Bringup(d, model, rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := s.Plan.Encode(h); err != nil {
				t.Fatal(err)
			}
			key := model + "/" + string(d)
			got := hex.EncodeToString(h.Sum(nil))
			if got != want[key] {
				t.Errorf("%s: plan sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}
