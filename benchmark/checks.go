package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// digest returns the hex SHA-256 of an output.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// matchDigest compares an output with its pinned digest.
func matchDigest(what, want string, got []byte) error {
	if d := digest(got); d != want {
		return fmt.Errorf("%s digest %s, pinned %s", what, d, want)
	}
	return nil
}

// pinnedIngest holds the merged federation snapshot digest of each
// ingest content variant.
var pinnedIngest = [contentVariants]string{
	"a4568ab122d08e240c5fcf33eeb1a32a6e31e64a27b8dee9d3d550d0cdaa8602",
	"f93662d182f9e40e089cfc3175ffc50c5add60ae380e223e3d6ccc755f2d05b8",
	"584c55a20248bf6f5b9b27a0c2b083f984d533bf7a8b3b93e898060e8142c15e",
	"de4db5cb5366728bb6901335fd68394bda3be368aef5ccc4dd134c17ddd307ce",
}

// pinnedCampaign holds the digest of each experiment's rendered
// tables, as benchtables prints them at the 3-run protocol.
var pinnedCampaign = map[string]string{
	"ablations":      "d520752f5d0fc2ffdae30a50433a949fcc803c25bea66ebef9ae01d3264ae74c",
	"baselines":      "d2c38c8f9c21c125c4ed53e7e08f241502e7182008f7f373dd873abe5b4b7a67",
	"fig1":           "bacf0c9500becf586cff00af460d4dace89475ed7e41febf669963fc5f23f23f",
	"fig3":           "bc240d1a2e56a828004deaae4c6f7d34b653e835cf60e79b3d777f7e3caeaa97",
	"fig4":           "9c1744fa1de345457ba9f1cc3c620cddee9696495ce6b50bb174f3191eb7d22b",
	"fig5":           "080d2a3352d92a097d41279a4a7fbf45303238c9497ae4450d97972198d0f908",
	"fig6":           "3564c5eca6aeac4850bd073e19e956a12fc2533bbd0f6a985b78ac3cd13f77f8",
	"fig7":           "c27769b3ac19ae62ac3a23375ffaef16408478dcb7b7dbeba1fde2516ade368d",
	"fig8":           "96b8410242798c25a7a3275093d784044b9af0728322e28c9b4e4fd3255ad04b",
	"future_work":    "65ef434b1306c4c6d9af05913d64c29aafbb0a90f582fa9ef6ae65f3da639d4a",
	"model_accuracy": "22c1ac16645270292b2d0d18362532035432cbfc003a3cb1216fadd95ce77e79",
	"summary":        "2d1f41235f28e062f4455834c4cb607cc3176156c0e3c12f99c01827559b28f1",
	"table1":         "2809af99706264565e9b68f1c4c4df3108e6842e42e439f1357a40ad560fa2ca",
	"table2":         "1f36a190e60671aa770a1b09e09fbd4303fbe295850779e593155205d73a704a",
	"table3":         "f6caae7ef3355bdb86fa1936f5b73a2980fb92fb6854fd7003bd85767e3f9c1c",
	"table4":         "993d1fb508f82c61ca60dbb4ab16ced13225fe350752bcb7fe59060c7102ca5e",
	"table5":         "5d68091e3700f0a1e926746d83b91e3a6e54739f958a2724181899f36c22400b",
	"table6":         "0a1c50002529fc2c03dff56c7577f7fcf4c37aec16d68584ceb8634d0b9abc87",
	"table7":         "c4c45e737755c8cef659a1961660d2dcce6b007c62e6591da51d8a92bf18b1fc",
}

// pinnedCluster holds the digest of the cluster_sim result of each
// content variant.
var pinnedCluster = [contentVariants]string{
	"f3bfc3699c3fa55d2af176b85f6c0f8ef0916eebde9825869ba1241d3b0f7b88",
	"f3a96f133b2d0d323bcf08d9a2ddc0a8784016f8e7f4bd1e80940e8872610739",
	"cb5d8e8694bf2c3ed97675f7cd87839a2fe86950ff3bf3b2c6644d6c8b1c6ee5",
	"7d32d979f604d611b46599cd692c588c018525ed5fe95f14aba3aac8222d1ba0",
}
