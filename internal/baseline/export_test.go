package baseline

// DefaultScriptConfig resembles the published Andrew benchmark's scale.
func DefaultScriptConfig() ScriptConfig {
	return ScriptConfig{Dirs: 10, FilesPerDir: 7, FileSize: 16 << 10, Chunk: 4096}
}
