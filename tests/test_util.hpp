// Tiny assertion harness for the tier-1 unit tests: no framework
// dependency, exits nonzero on first failure with file:line context.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,   \
                         __LINE__, #cond);                                  \
            std::exit(1);                                                   \
        }                                                                   \
    } while (0)

#define CHECK_MSG(cond, fmt, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "CHECK failed at %s:%d: %s (" fmt ")\n",   \
                         __FILE__, __LINE__, #cond, __VA_ARGS__);           \
            std::exit(1);                                                   \
        }                                                                   \
    } while (0)

// Arms an engine's epoch stripes through the real trigger: one update
// transaction whose commit validation walks Stm::kArmWalk read-log
// entries (`vars` must hold at least that many). The filter runs unarmed
// until some attempt walks a read log that long (DESIGN.md "Stripes on
// demand"), so tests that pin stripe fast hits or bump counts on small
// transactions arm first. The arming commit itself bumps nothing. Var is
// the engine's word var: TVar<long> for LsaStm, WordVar<long> for
// OrecStm.
template <typename Var, typename Stm>
void arm_stripes(Stm& stm, std::vector<std::unique_ptr<Var>>& vars) {
    auto ctx = stm.make_context();
    ctx.run([&](auto& tx) {
        long sum = 0;
        for (auto& v : vars) sum += v->get(tx);
        vars[0]->set(tx, sum + 1);
    });
    CHECK(stm.filter_armed());
}

template <typename Var, typename Stm>
void arm_stripes(Stm& stm) {
    std::vector<std::unique_ptr<Var>> vars;
    for (std::uint32_t i = 0; i < Stm::kArmWalk; ++i)
        vars.push_back(std::make_unique<Var>(0));
    arm_stripes(stm, vars);
}
