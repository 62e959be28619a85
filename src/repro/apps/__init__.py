"""The paper's case-study applications, built on the Correctables API.

* :mod:`repro.apps.ads`        — ad-serving system (Listing 4, Figure 11);
* :mod:`repro.apps.twissandra` — microblogging timelines (Figure 11);
* :mod:`repro.apps.tickets`    — ticket selling over a replicated queue
  (Listing 5, Figure 12);
* :mod:`repro.apps.news`       — smartphone news reader exposing data
  incrementally (Listing 6);
* :mod:`repro.apps.catalog`    — the application taxonomy of Table 1;
* :mod:`repro.apps.datasets`   — synthetic datasets shaped like the ones the
  paper used (profiles→ads references, timelines→tweets).
"""
