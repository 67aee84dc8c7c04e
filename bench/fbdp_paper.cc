/**
 * @file
 * fbdp-paper [--quick] [NAME...]: print the paper's figures fig04 ...
 * fig13 and ablations abl01 ... abl06 (all sixteen, in that order, if
 * no NAME is given), running each distinct cell once (PaperRun) on
 * FBDP_JOBS workers (default: one per host CPU).  Bad arguments exit
 * 2.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "system/runner.hh"

using Figure = void(fbdp::PaperRun &p, std::ostream &os);
Figure fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12,
    fig13, abl01, abl02, abl03, abl04, abl05, abl06;

namespace {

using fbdp::Window;

struct Named
{
    const char *name;
    Figure *draw;
    Window window;
};

const Named figures[] = {
    {"fig04", fig04, Window::Long},  {"fig05", fig05, Window::Long},
    {"fig06", fig06, Window::Short}, {"fig07", fig07, Window::Long},
    {"fig08", fig08, Window::Short}, {"fig09", fig09, Window::Short},
    {"fig10", fig10, Window::Short}, {"fig11", fig11, Window::Short},
    {"fig12", fig12, Window::Short}, {"fig13", fig13, Window::Short},
    {"abl01", abl01, Window::Short}, {"abl02", abl02, Window::Short},
    {"abl03", abl03, Window::Short}, {"abl04", abl04, Window::Short},
    {"abl05", abl05, Window::Short}, {"abl06", abl06, Window::Short},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "fbdp-paper: " << why
              << "\nusage: fbdp-paper [--quick] [NAME...], NAME one of";
    for (const Named &f : figures)
        std::cerr << ' ' << f.name;
    std::cerr << '\n';
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::vector<Named> chosen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto found = std::find_if(
            std::begin(figures), std::end(figures),
            [&](const Named &f) { return arg == f.name; });
        if (arg == "--quick")
            quick = true;
        else if (found != std::end(figures))
            chosen.push_back(*found);
        else
            usage((arg[0] == '-' ? "unknown flag '" : "unknown figure '")
                  + arg + "'");
    }
    if (chosen.empty())
        chosen.assign(std::begin(figures), std::end(figures));

    fbdp::PaperRun paper(quick);
    paper.play(
        [&](fbdp::PaperRun &p, std::ostream &os) {
            for (const Named &f : chosen) {
                p.setWindow(f.window);
                f.draw(p, os);
            }
        },
        std::cout);
    return 0;
}
