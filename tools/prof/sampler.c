/*
 * SIGPROF leaf-IP sampler, loaded with LD_PRELOAD (see prof.sh).
 *
 * At load it arms ITIMER_PROF, which fires once per millisecond of the
 * process's CPU time, summed over its threads (at most once per kernel
 * tick, so a finer period would take no more samples).
 * The handler stores the interrupted instruction pointer into a buffer
 * allocated before the timer starts; samples past its end are counted as
 * dropped. At exit the process writes PROF_OUT.<pid>: its /proc/self/maps,
 * a "--samples--" line, then one hexadecimal IP per line.
 *
 * Interval timers survive execve(2) while signal handlers do not, so the
 * wrapper below disarms the timer before a process replaces its image;
 * otherwise a tick could kill the new image before its own copy of this
 * file had loaded. That image's samples are lost. The wrapper sees only
 * calls to execve itself: glibc's execv, execvp and execl call it from
 * inside libc, so a program that execs through them (env, nice, taskset,
 * Rust's CommandExt::exec) keeps the timer armed, and a tick before the
 * new image's copy of this file loads kills it. prof.sh therefore asks for
 * a CMD that does not exec another program. A forked child starts with no
 * timer and arms its own.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 21)
#define PERIOD_USEC 1000

static uintptr_t *samples;
static unsigned long taken;
static unsigned long dropped;

static void on_prof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = context;
#if defined(__x86_64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t ip = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sampler.c reads the IP on x86_64 and aarch64 only"
#endif
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ip;
    else
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
}

static void arm(long usec)
{
    struct itimerval tv = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

static void write_all(int fd, const char *buf, size_t len)
{
    while (len > 0) {
        ssize_t n = write(fd, buf, len);
        if (n <= 0)
            return;
        buf += n;
        len -= (size_t)n;
    }
}

__attribute__((constructor)) static void prof_start(void)
{
    const char *out = getenv("PROF_OUT");
    if (out == NULL || *out == '\0')
        return;
    samples = malloc(MAX_SAMPLES * sizeof *samples);
    if (samples == NULL)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    arm(PERIOD_USEC);
}

__attribute__((destructor)) static void prof_stop(void)
{
    if (samples == NULL)
        return;
    arm(0);
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", getenv("PROF_OUT"), (int)getpid());
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    char buf[1 << 16];
    int maps = open("/proc/self/maps", O_RDONLY);
    if (maps >= 0) {
        ssize_t n;
        while ((n = read(maps, buf, sizeof buf)) > 0)
            write_all(fd, buf, (size_t)n);
        close(maps);
    }
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    int len = snprintf(buf, sizeof buf, "--samples-- %lu dropped %lu\n", n, dropped);
    write_all(fd, buf, (size_t)len);
    len = 0;
    for (unsigned long i = 0; i < n; i++) {
        len += snprintf(buf + len, sizeof buf - (size_t)len, "%lx\n", (unsigned long)samples[i]);
        if ((size_t)len > sizeof buf - 32) {
            write_all(fd, buf, (size_t)len);
            len = 0;
        }
    }
    write_all(fd, buf, (size_t)len);
    close(fd);
}

int execve(const char *path, char *const argv[], char *const envp[])
{
    static int (*real)(const char *, char *const[], char *const[]);
    if (real == NULL)
        real = (int (*)(const char *, char *const[], char *const[]))dlsym(RTLD_NEXT, "execve");
    struct itimerval was;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, &was);
    int rc = real(path, argv, envp);
    setitimer(ITIMER_PROF, &was, NULL);
    return rc;
}
