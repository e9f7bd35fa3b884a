// Sanitizer detection shared by the engine and the tests.
//
// PERFDMF_TSAN is always defined: 1 under ThreadSanitizer, 0 otherwise,
// so test it with `#if`, never `#ifdef`. gcc defines __SANITIZE_THREAD__;
// clang exposes __has_feature(thread_sanitizer).
#pragma once

#if defined(__SANITIZE_THREAD__)
#define PERFDMF_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PERFDMF_TSAN 1
#endif
#endif
#ifndef PERFDMF_TSAN
#define PERFDMF_TSAN 0
#endif
