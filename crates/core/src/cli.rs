//! One command-line parser for every binary of the workspace.
//!
//! A binary describes its flags as a table of [`Flag`] rows, written one
//! line each with [`flags!`](crate::flags): the long name, an optional
//! short alias, the value's metavar (none for a switch), a one-line help
//! and the setter into the binary's options struct. [`Cli::parse`] walks
//! argv against that table and [`Cli::help`] prints it, so the flag list
//! exists once per binary. The spec parsers the setters share (a
//! probability, a `D:N` pair, the straggler and kernel-flip specs, a
//! qubit count) live here too, beside [`Version`](crate::Version)'s,
//! [`CodecKind`](crate::CodecKind)'s and
//! [`NoiseConfig`](crate::NoiseConfig)'s `FromStr` and
//! [`OptFlags::parse`](crate::OptFlags::parse).
//!
//! Every error the loop returns is `unknown flag '--x'`, `--x: missing
//! value` or `--x: <reason>`. [`Cli::exit`] prints `--help` to stdout
//! with exit code 0 and a usage error, followed by the help, to stderr
//! with exit code 2; run failures are the binaries' own and exit 1.
//!
//! A binary writes its results through one [`Stdout`], so a reader that
//! goes away early (`| head -1`) ends the output, not the process.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::num::{ParseFloatError, ParseIntError};
use std::process::ExitCode;

use qgpu_circuit::Circuit;
use qgpu_faults::FaultConfig;

/// One flag of a binary's table.
pub struct Flag<O> {
    /// The long name, `--x`.
    pub long: &'static str,
    /// The short alias, `-x`.
    pub short: Option<&'static str>,
    /// What the value is called in the help; `None` for a switch.
    pub metavar: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
    /// Stores the value (`""` for a switch) into the options.
    pub set: fn(&mut O, &str) -> Result<(), Error>,
}

/// Builds a `&'static [Flag<O>]`, one row per flag:
/// `"--long"[, "-s"] [<"METAVAR">] "help" => |o, v| setter;`. The setter
/// is an expression over the options `o` and the value `v` in which `?`
/// turns a parse error into the flag's `<reason>`.
#[macro_export]
macro_rules! flags {
    (@opt) => { None };
    (@opt $x:literal) => { Some($x) };
    ($o:ty; $($long:literal $(, $short:literal)? $(<$meta:literal>)? $help:literal
        => |$ob:tt, $vb:tt| $set:expr;)*) => {
        &[$($crate::cli::Flag::<$o> {
            long: $long,
            short: $crate::flags!(@opt $($short)?),
            metavar: $crate::flags!(@opt $($meta)?),
            help: $help,
            set: |$ob: &mut $o, $vb: &str| -> Result<(), $crate::cli::Error> {
                $set;
                Ok(())
            },
        }),*]
    };
}

/// Why a command line did not run.
#[derive(Debug, PartialEq)]
pub enum Error {
    /// `-h`/`--help` was given.
    Help,
    /// A usage error; as a setter's error, the `<reason>` of `--x: <reason>`.
    Usage(String),
}

impl Error {
    /// The error as `flag: <reason>`.
    pub fn on(self, flag: &str) -> Error {
        match self {
            Error::Usage(reason) => Error::Usage(format!("{flag}: {reason}")),
            help => help,
        }
    }
}

macro_rules! usage_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Error {
            fn from(e: $t) -> Error {
                Error::Usage(e.to_string())
            }
        }
    )*};
}
usage_from!(String, &str, ParseIntError, ParseFloatError);

/// A usage error saying `msg` unless `ok`.
pub fn require(ok: bool, msg: &str) -> Result<(), Error> {
    ok.then_some(()).ok_or_else(|| msg.into())
}

/// A binary's command line: its synopsis and its flag table.
pub struct Cli<O: 'static> {
    /// The `usage:` lines above the flag list.
    pub usage: &'static str,
    /// The flags, in the order `--help` lists them.
    pub flags: &'static [Flag<O>],
}

impl<O: Default> Cli<O> {
    /// Walks `args` (argv without the program name) against the table:
    /// the options and the leftover positionals, or why not.
    ///
    /// # Errors
    ///
    /// [`Error::Help`] on `-h`/`--help`, else a usage error.
    pub fn parse(&self, args: &[String]) -> Result<(O, Vec<String>), Error> {
        let mut opts = O::default();
        let mut positionals = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "-h" || arg == "--help" {
                return Err(Error::Help);
            }
            let row = self
                .flags
                .iter()
                .find(|f| f.long == arg || f.short == Some(arg));
            let Some(flag) = row else {
                if arg.len() > 1 && arg.starts_with('-') {
                    return Err(Error::Usage(format!("unknown flag '{arg}'")));
                }
                positionals.push(arg.clone());
                continue;
            };
            let value = match flag.metavar {
                Some(_) => args
                    .next()
                    .ok_or_else(|| format!("{}: missing value", flag.long))?,
                None => "",
            };
            (flag.set)(&mut opts, value).map_err(|e| e.on(flag.long))?;
        }
        Ok((opts, positionals))
    }
}

impl<O> Cli<O> {
    /// The help text: the synopsis, then one line per flag and `--help`.
    pub fn help(&self) -> String {
        let mut text = format!("{}\n\nflags:\n", self.usage);
        for f in self.flags {
            let short = f.short.map_or(String::new(), |s| format!("{s},"));
            let metavar = f.metavar.map_or(String::new(), |m| format!(" <{m}>"));
            let left = format!("  {short:<4}{}{metavar}", f.long);
            let _ = writeln!(text, "{left:<35} {}", f.help);
        }
        let _ = writeln!(text, "{:<35} print this help", "  -h, --help");
        text
    }

    /// Reports `e` and gives the exit code: the help on stdout and 0, or
    /// the usage error and the help on stderr and 2.
    pub fn exit(&self, e: Error) -> ExitCode {
        if let Error::Usage(msg) = e {
            eprint!("{msg}\n\n{}", self.help());
            return ExitCode::from(2);
        }
        match Stdout::lock().write_all(self.help().as_bytes()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// A binary's stdout, locked once. A closed reader (`BrokenPipe`, as
/// under `| head -1`) is a normal end of the output: that write and every
/// later one is dropped, [`Stdout::closed`] turns true, and the exit code
/// still reports the run. Any other write error is returned, naming
/// stdout.
pub struct Stdout {
    lock: io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    /// Locks the process's stdout.
    pub fn lock() -> Self {
        Stdout {
            lock: io::stdout().lock(),
            closed: false,
        }
    }

    /// Whether the reader has gone away.
    pub fn closed(&self) -> bool {
        self.closed
    }

    fn end(&mut self, e: io::Error) -> io::Result<()> {
        if e.kind() == io::ErrorKind::BrokenPipe {
            self.closed = true;
            return Ok(());
        }
        Err(io::Error::new(e.kind(), format!("stdout: {e}")))
    }
}

impl io::Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        match self.lock.write(buf) {
            Err(e) => self.end(e).map(|()| buf.len()),
            ok => ok,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        match self.lock.flush() {
            Err(e) => self.end(e),
            ok => ok,
        }
    }
}

/// The process's arguments after the program name; bytes that are not
/// UTF-8 become U+FFFD instead of a panic.
pub fn argv() -> Vec<String> {
    std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect()
}

/// A probability or fraction: a number in `[0, 1]`.
pub fn prob(v: &str) -> Result<f64, Error> {
    let p: f64 = v.parse()?;
    require((0.0..=1.0).contains(&p), &format!("{v} is not in [0, 1]"))?;
    Ok(p)
}

/// A tolerance: a finite number `>= 0`.
pub fn tolerance(v: &str) -> Result<f64, Error> {
    let t: f64 = v.parse()?;
    require(
        t.is_finite() && t >= 0.0,
        &format!("{v} is not finite and >= 0"),
    )?;
    Ok(t)
}

/// A `D:N` pair: a device and a program op (`D:OP`) or milliseconds (`D:MS`).
pub fn pair(v: &str) -> Result<(usize, usize), Error> {
    let (d, n) = v.split_once(':').ok_or("wants D:N")?;
    Ok((d.parse()?, n.parse()?))
}

/// A qubit count for generators whose smallest circuit has `min` qubits.
pub fn qubits(q: usize, min: usize) -> Result<usize, Error> {
    let max = Circuit::MAX_QUBITS;
    require(
        (min..=max).contains(&q),
        &format!("{q} is not in {min}..={max}"),
    )?;
    Ok(q)
}

/// `--inject-straggler D[:F]`: pin device D as a straggler, stretched by
/// F > 1 (default: the config's slowdown factor).
pub fn straggler(f: &mut FaultConfig, v: &str) -> Result<(), Error> {
    let (d, factor) = v.split_once(':').map_or((v, None), |(d, x)| (d, Some(x)));
    f.straggler_device = d.parse()?;
    if let Some(x) = factor {
        f.slowdown_factor = x.parse()?;
        require(f.slowdown_factor > 1.0, "the slowdown factor must exceed 1")?;
    }
    Ok(())
}

/// `--inject-kernel-flip OP[:COUNT[:ATTEMPTS[:BIT]]]`: flip BIT (0..=63)
/// of an amplitude in COUNT kernels from program op OP, sticky for
/// ATTEMPTS re-executions; an omitted field keeps the config's.
pub fn kernel_flip(f: &mut FaultConfig, v: &str) -> Result<(), Error> {
    let mut parts = v.split(':');
    f.kernel_flip_at = parts.next().unwrap_or_default().parse()?;
    for field in [
        &mut f.kernel_flip_count,
        &mut f.kernel_flip_attempts,
        &mut f.kernel_flip_bit,
    ] {
        if let Some(p) = parts.next() {
            *field = p.parse()?;
        }
    }
    require(f.kernel_flip_bit <= 63, "BIT must be 0..=63")?;
    require(parts.next().is_none(), "wants OP[:COUNT[:ATTEMPTS[:BIT]]]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, NoiseConfig, OptFlags, Version};
    use proptest::prelude::*;

    #[derive(Debug, Default, PartialEq)]
    struct Opts {
        on: bool,
        n: u64,
        p: f64,
        pair: (usize, usize),
        version: Option<Version>,
        codec: Option<CodecKind>,
        noise: Option<NoiseConfig>,
        opts: Option<OptFlags>,
        faults: FaultConfig,
    }

    const CLI: Cli<Opts> = Cli {
        usage: "usage: t [flags] [FILE]",
        flags: crate::flags! { Opts;
            "--on" "a switch" => |o, _| o.on = true;
            "--num", "-n" <"N"> "a number" => |o, v| o.n = v.parse()?;
            "--prob" <"P"> "a probability" => |o, v| o.p = prob(v)?;
            "--pair" <"D:N"> "a pair" => |o, v| o.pair = pair(v)?;
            "--qubits" <"N"> "a qubit count" => |o, v| o.n = qubits(v.parse()?, 4)? as u64;
            "--version" <"NAME"> "a version" => |o, v| o.version = Some(v.parse()?);
            "--codec" <"NAME"> "a codec" => |o, v| o.codec = Some(v.parse()?);
            "--noise" <"SPEC"> "noise channels" => |o, v| o.noise = Some(v.parse()?);
            "--opts" <"LIST"> "an optimization subset" => |o, v| o.opts = Some(OptFlags::parse(v)?);
            "--straggler" <"D[:F]"> "a straggler" => |o, v| straggler(&mut o.faults, v)?;
            "--kernel-flip" <"OP[:COUNT[:ATTEMPTS[:BIT]]]"> "a kernel flip" => |o, v| kernel_flip(&mut o.faults, v)?;
        },
    };

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn usage(line: &str) -> String {
        match CLI.parse(&args(line)) {
            Err(Error::Usage(msg)) => msg,
            other => panic!("{line}: {other:?}"),
        }
    }

    #[test]
    fn parses_switches_values_aliases_and_positionals() {
        let (o, rest) = CLI.parse(&args("a.qasm --on -n 7 b --num 9")).unwrap();
        assert!(o.on);
        assert_eq!(o.n, 9, "the last occurrence wins");
        assert_eq!(rest, ["a.qasm", "b"]);
        let (o, rest) = CLI.parse(&[]).unwrap();
        assert_eq!((o, rest.len()), (Opts::default(), 0));
        // A value is taken as is, dash or not; a lone `-` is a positional.
        assert_eq!(
            CLI.parse(&args("--pair 1:-")).map(|_| ()),
            Err(Error::Usage("--pair: invalid digit found in string".into()))
        );
        assert_eq!(CLI.parse(&args("-")).unwrap().1, ["-"]);
    }

    #[test]
    fn errors_take_three_shapes() {
        assert_eq!(usage("--on --nope"), "unknown flag '--nope'");
        assert_eq!(usage("-x"), "unknown flag '-x'");
        assert_eq!(usage("--on --num"), "--num: missing value");
        assert_eq!(usage("-n x"), "--num: invalid digit found in string");
        assert_eq!(usage("--prob 2"), "--prob: 2 is not in [0, 1]");
        assert_eq!(
            CLI.parse(&args("--num x --help")).map(|_| ()),
            Err(Error::Usage("--num: invalid digit found in string".into()))
        );
    }

    #[test]
    fn help_is_an_exit_not_an_error() {
        for line in ["-h", "--help", "--on --help --nope", "--num 3 -h"] {
            assert_eq!(
                CLI.parse(&args(line)).map(|_| ()),
                Err(Error::Help),
                "{line}"
            );
        }
        assert_eq!(CLI.exit(Error::Help), ExitCode::SUCCESS);
        assert_eq!(CLI.exit(Error::Usage("x".into())), ExitCode::from(2));
    }

    #[test]
    fn help_lists_every_row_once() {
        let help = CLI.help();
        assert!(help.starts_with(CLI.usage));
        for f in CLI.flags.iter().map(|f| f.long).chain(["--help"]) {
            let listed = help
                .lines()
                .filter(|l| l.split_whitespace().any(|w| w == f))
                .count();
            assert_eq!(listed, 1, "{f} in\n{help}");
        }
        assert!(help.contains("  -n, --num <N>"));
        assert!(help.contains("      --on "));
    }

    #[test]
    fn value_parsers_accept_and_reject() {
        let ok = [
            "--prob 0",
            "--prob 1",
            "--prob 0.25",
            "--prob 1e-3",
            "--pair 0:0",
            "--pair 3:40",
            "--qubits 4",
            "--qubits 64",
            "--version baseline",
            "--version Q-GPU",
            "--codec zero-run",
            "--noise depolarizing:0.01,loss:0.001",
            "--opts pruning+compression",
            "--opts none",
            "--straggler 1",
            "--straggler 1:8",
            "--straggler 0:1.5",
            "--kernel-flip 5",
            "--kernel-flip 5:3",
            "--kernel-flip 5:3:2",
            "--kernel-flip 5:3:2:0",
            "--kernel-flip 0:1:1:63",
        ];
        for line in ok {
            assert!(CLI.parse(&args(line)).is_ok(), "{line} refused");
        }
        let bad = [
            "--prob -1",
            "--prob 1.5",
            "--prob NaN",
            "--prob inf",
            "--prob x",
            "--pair 3",
            "--pair :1",
            "--pair 1:",
            "--pair -1:3",
            "--pair 1:2:3",
            "--qubits 3",
            "--qubits 65",
            "--qubits -1",
            "--version fast",
            "--codec lz4",
            "--noise loud:1",
            "--opts turbo",
            "--straggler x",
            "--straggler 1:1",
            "--straggler 1:0.5",
            "--straggler 1:NaN",
            "--straggler 1:",
            "--kernel-flip",
            "--kernel-flip x",
            "--kernel-flip :1",
            "--kernel-flip 5:3:2:64",
            "--kernel-flip 5:3:2:1:0",
            "--kernel-flip 5::",
            "--kernel-flip 5:-1",
        ];
        for line in bad {
            assert!(
                matches!(CLI.parse(&args(line)), Err(Error::Usage(_))),
                "{line} accepted"
            );
        }
    }

    #[test]
    fn fault_specs_land_in_the_config() {
        let f = |line: &str| CLI.parse(&args(line)).unwrap().0.faults;
        let d = FaultConfig::default();
        assert_eq!(
            (
                f("--straggler 2").straggler_device,
                f("--straggler 2").slowdown_factor
            ),
            (2, d.slowdown_factor)
        );
        assert_eq!(f("--straggler 1:8").slowdown_factor, 8.0);
        let k = f("--kernel-flip 5:3");
        assert_eq!(
            (
                k.kernel_flip_at,
                k.kernel_flip_count,
                k.kernel_flip_attempts,
                k.kernel_flip_bit
            ),
            (5, 3, d.kernel_flip_attempts, d.kernel_flip_bit)
        );
        let k = f("--kernel-flip 7:1:2:9");
        assert_eq!(
            (
                k.kernel_flip_at,
                k.kernel_flip_count,
                k.kernel_flip_attempts,
                k.kernel_flip_bit
            ),
            (7, 1, 2, 9)
        );
        assert_eq!(CLI.parse(&args("--pair 2:40")).unwrap().0.pair, (2, 40));
    }

    /// A token of a hostile argv: a flag name of the table, or a string
    /// of spec-like or arbitrary characters.
    fn token() -> impl Strategy<Value = String> {
        const ALPHABET: &[u8] = b"0123456789:.,-+eE_xqNaninf \x00\xff";
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..12)).prop_map(|(pick, bytes)| {
            let names: Vec<&str> = CLI
                .flags
                .iter()
                .flat_map(|f| [f.long].into_iter().chain(f.short))
                .collect();
            match pick % 4 {
                0 | 1 => names[pick as usize % names.len()].to_string(),
                2 => bytes
                    .iter()
                    .map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char)
                    .collect(),
                _ => String::from_utf8_lossy(&bytes).into_owned(),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Byte soup over the table never panics the loop or a value parser.
        #[test]
        fn byte_soup_never_panics(argv in proptest::collection::vec(token(), 0..8)) {
            let _ = CLI.parse(&argv);
            let _ = CLI.help();
        }
    }
}
