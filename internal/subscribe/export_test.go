package subscribe

// FrameKeep is the window a streamed ack or resync is written through.
const FrameKeep = frameKeep
