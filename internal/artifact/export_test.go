package artifact

// CheckEnvelope is the peer trust boundary's gate as FuzzCheckEnvelope
// sees it: openEnvelope, which PeerBlob applies to every fetched
// envelope, reporting the kind and codec version of one that passes.
func CheckEnvelope(key string, raw []byte) (kind string, codecVersion int, err error) {
	env, err := openEnvelope(key, raw)
	return env.Kind, env.CodecVersion, err
}
