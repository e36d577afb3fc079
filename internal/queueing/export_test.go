package queueing

// SharedColumnEntries exposes the shared column cache's bound to the
// external walls, which evict entries by filling it with other seeds.
const SharedColumnEntries = sharedColumnEntries
