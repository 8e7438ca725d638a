"""Regression constants.  The first group was computed once by the
tight-tolerance quadrature oracle (relative 1e-12) and frozen here;
test_acceptance re-derives each one at session time and every evaluator
path must reproduce them.  K_REF and GAMMA_SERIES_SIDE come from
high-precision arithmetic (see their comments); no test imports mpmath."""

# S at order 0, argument 3, endpoint 3: the midpoint of the two standard
# single-parameter sweeps
S0_3_3 = 0.031180758184859769

# Macdonald function at order 0, argument 3
K0_3 = 0.034739504386279248

# upper incomplete gamma at order 0, argument 1 (exponential integral E1(1))
E1_1 = 0.21938393439552027

# upper incomplete gamma at order -1.5, argument 2
GAMMA_M15_2 = 0.011832994103345997

# upper incomplete gamma at order 0, argument 3
GAMMA_0_3 = 0.013048381094197037

# order +-1/2 closed-form grid: (order, argument, endpoint) -> value
S_HALF_GRID = {
    (0.5, 2.0, 1.0): 0.075284680177509859,
    (-0.5, 2.0, 1.0): 0.044653091790551588,
    (0.5, 0.5, 0.5): 0.93858456804730422,
    (-0.5, 0.5, 0.5): 0.54812555575826416,
    (0.5, 5.0, 4.0): 0.0034101509389685485,
    (-0.5, 5.0, 4.0): 0.0030522223131828333,
    (0.5, 3.0, 3.0): 0.033784664574023066,
    (-0.5, 3.0, 3.0): 0.030317402485975475,
}

# Macdonald function reference values K_order(argument), computed once with
# mpmath.besselk at 60 and 120 digits (agreeing to 1e-61) and rounded to
# double: both sides of the z = 2 series/continued-fraction switch, mu = 0
# and mu near +-1/2, orders up to 30, arguments from 1e-6 to 700, and a
# large order just above the underflow threshold at z > 714
K_REF = {
    (0.0, 1e-06): 13.93144207362642,
    (0.0, 700.0): 4.669776431685377e-306,
    (0.7, 1.9999): 0.12602928657620238,
    (0.7, 2.0): 0.12601327130661064,
    (2.4999, 1.5): 0.9893382760419336,
    (-3.5001, 3.0): 0.18815298882642303,
    (-5.5, 0.3): 885431.4026941846,
    (7.0, 0.05): 58976256383979.98,
    (-13.0, 40.0): 6.650998713612697e-18,
    (30.0, 0.001): 4.7468847843445486e129,
    (-29.7, 25.0): 2.8106885101386285e-05,
    (12.25, 699.0): 1.4141124512058263e-305,
    (200.0, 720.0): 9.060125222145538e-303,
}

# upper incomplete gamma at positive orders with 1.5 <= x < a + 1, where the
# Legendre continued fraction converges falsely; mpmath.gammainc at 60 digits
GAMMA_SERIES_SIDE = {
    (28.1, 2.84): 1.5170409745480294e28,
    (15.0, 1.6): 87178291182.76991,
    (10.0, 2.0): 362863.12677853776,
}

# S at the order +-1/2 pair where the closed form's erfc difference cancels
# most on the grid-table sweeps, and at two large-endpoint points.  The
# first two are the closed form in mpmath at 50 and 70 digits, the last
# two K minus the integral beyond t in mpmath at 40 and 60 digits; each
# agreed to 20 digits with Gauss-Legendre quadrature of the defining
# integral over [0, t], and is rounded to double
S_HIGH_PRECISION = {
    (-0.5, 12.48897467349754, 0.06231727387915222): 1.330913971771554e-276,
    (0.5, 12.48897467349754, 0.06231727387915222): 1.3357655934115015e-274,
    (-2.551122338010126, 29.859251913644236, 37.407779231001925): 2.7388098892207012e-14,
    (-0.20319671806813133, 23.093510210467603, 35.76121889206547): 2.4266610059155894e-11,
}

# S at two large endpoints where the outer sum of the former asymptotic
# large-endpoint sum cancelled (its peak partial sum was 2e7 and 6e15
# times the correction it summed to).  The y-form and endpoint integrals and K minus the integral beyond
# t, each in mpmath at 50 digits with its integrand scaled by the peak,
# agreeing to 25 digits, rounded to double
S_LARGE_T_CANCELLING = {
    (-29.30566453422461, 43.975624187433134, 47.39947098266069): 1.4920293274770953e-16,
    (-8.267746481048224, 164.63856228515448, 171.7367769997575): 3.7819188037854335e-73,
}

# S at four scatter-wide points where each inner asymptotic sum of the
# former large-endpoint sum ran to its 201-term cap before its smallest
# term, so evaluate fell through to the oracle.  The small-endpoint series in
# mpmath, its terms cancelling from about e^t, at 420 and 520 digits, or
# at 720 and 850 for the last (at 420 and 520 its two values disagree),
# each pair agreeing to 30 digits, rounded to double
S_LARGE_T_INNER_STOP = {
    (-7.955851591265382, 320.06426145417345, 359.1606765143919): 7.691360326704222e-141,
    (17.62730571110437, 234.04968198971753, 330.3785809315047): 3.5828129771581513e-103,
    (5.939455967679649, 326.07199276210355, 435.8067825059122): 1.7923631843050177e-143,
    (-21.506817930732307, 596.2118953757137, 690.7547054398525): 8.851906424130292e-261,
}

# S at the four points whose TIGHT decision moved to the large-endpoint
# candidate when it became the small-argument K form: the first three
# from the small-endpoint series (grid-table and scatter-wide sweeps),
# the last from the oracle (random.Random(102)).  The y-form integral,
# scaled by its peak, in mpmath at 30 and 50 digits, agreeing to 29
# digits, and K minus the incomplete-gamma sum in mpmath at 50 digits,
# agreeing with it to 41; rounded to double
S_LARGE_T_K_FORM = {
    (17.837088751445748, 51.1528918675001, 58.677766577590965): 2.2507904221547646e-22,
    (26.046909917244122, 65.55868417552276, 67.72172814463552): 8.325019650376291e-28,
    (24.89360846681935, 79.81578200069673, 83.48405853209965): 1.3979258821374325e-34,
    (90.8937509854548, 61.256863408024664, 30.20612258966773): 0.019179511532114495,
}

# S at the points that left the oracle for the large-endpoint candidate
# when its gate and the K form's K-alone exit took one bound on K - S
# that keeps e^(-z^2/4s) (expansions._log_tail_bound): scatter-wide seed
# 2's (23.61, 35.56, 30.99), seed 9's (8.72, 650.51, 616.06),
# random.Random(102)'s (52.38, 49.20, 30.32) and random.Random(104)'s
# (69.92, 607.50, 568.66); and (18.59, 356.49, 367.06), which left the
# small-endpoint series.  Where that bound is below 1e-30 of K (the
# second, fourth and fifth) S is mpmath.besselk at 30 and 50 digits; at
# the other two (1/2)(z/2t)^nu e^(-x0 - t) sum_n t^n U(n + 1, nu + 1, x0)
# with mpmath.hyperu and the y-form integral in s = y - x0, scaled by its
# peak, with mpmath.quad over breakpoints at powers of two from 1/64 to
# 2048, each at 30 and 50 digits.  At every point all of these agree
# within 2e-29 relative; rounded to double
S_LARGE_T_TANGENT = {
    (23.614292194979306, 35.56234462018066, 30.9892096389584): 1.3536827096567097e-13,
    (8.72044315900196, 650.5129936677802, 616.0556729876891): 1.5940797626463775e-284,
    (52.37680485444983, 49.20433422215594, 30.322670527752773): 1.0685212320209864e-11,
    (69.92058896880462, 607.5005132738306, 568.6615616984353): 4.132676741682186e-264,
    (18.589669083686715, 356.49257978239893, 367.05542657706394): 1.6191175362553357e-156,
}

# S where the integrand's exponent, near -592 to -707, rounds to more than
# the quadrature oracles' estimate once left out of it.  The y-form and
# endpoint integrals in mpmath at 50 digits, each scaled by its peak,
# agreeing to 25 digits with the small-endpoint series in mpmath at 120
# and 160 digits, rounded to double
S_EXPONENT_ROUNDING = {
    (-29.963652409842208, 51.2832099354792, 1.1788820666918924): 1.3351275028728975e-286,
    (6.866860090259657, 14.677904963797392, 0.0875726374437794): 9.480092628675543e-258,
    (-25.517296979498347, 45.25141063150784, 0.8655368185527998): 3.182638078599481e-297,
    (-19.02178089671522, 55.98546266713453, 1.226843953874012): 1.3341196713410222e-307,
}

# S where form 2's clamped interval (tau > z^2/3040) used to be empty although
# S is a normal double: the prefactor (z/2)^nu tau^(-nu-1) outweighs
# e^(-z^2/4tau).  The small-endpoint series in mpmath at 60 and 80 digits,
# agreeing to 25 digits with the y-form and endpoint integrals in mpmath at 50
# digits (each scaled to O(1), since mpmath's quadrature tests its error
# absolutely), rounded to double
S_FORM2_CLAMP = {
    (26.504583450738707, 2.077974653052133, 0.0013578072839012679): 9.313056694464083e-273,
}

# S at small argument and negative order, where the y-form oracle (form 5)
# returned 2-9x too little before its breakpoint ladder: K minus the integral beyond t in mpmath at 50
# digits, agreeing to 22 digits with the small-argument series in mpmath at
# 60 digits, rounded to double
S_SMALL_Z_NEGATIVE_ORDER = {
    (-4.434559218710991, 3.4031986150386595e-06, 320.01580148302554): 2.0369447689193523e26,
    (-2.151407141735234, 1.4691631968044169e-05, 120.38082138382366): 59582919079.8882,
    (-22.746602411651615, 0.0014223045930853047, 24.80997912675126): 7.117599164838689e91,
}

# S at order +-1/2 and a subnormal argument, where the closed form's
# prefactor sqrt(pi)/z or sqrt(2/z) overflows: the closed form in mpmath at
# 50 and 70 digits, agreeing to 50 digits and to 28 with the defining
# integral over (0, t] (K minus the integral beyond t at order 1/2) in
# mpmath at 50 digits, rounded to double
S_HALF_SUBNORMAL_Z = {
    (-0.5, 5e-324, 1.0): 4.751612461656179e161,
    (0.5, 2.5e-323, 1.0): 2.521637230174609e161,
    (-0.5, 2.5e-323, 1.0): 2.124985693399666e161,
}

# K_order(z) at the 30 of 576 seeded tiny arguments (random.Random(5):
# order uniform on [-1, 1], z log-uniform on [1e-308, 1e-30]) where K's
# estimate missed most before it counted the rounding of mu ln(z/2):
# mpmath.besselk at 40 and 60 digits, agreeing to 35 digits or better,
# rounded to double
K_TINY_Z = {
    (0.4536663142284252, 3.108659328596905e-282): 6.862620065375601e+127,
    (-0.5103008941237037, 2.7686691035488403e-285): 2.0070247053697286e+145,
    (-0.4459105458601271, 8.346108199681447e-253): 3.433323585399698e+112,
    (0.5206947378593325, 1.3250056645107186e-308): 2.4970772942679586e+160,
    (-0.5476125117880617, 2.9684024997798147e-301): 4.43306793603038e+164,
    (-0.3881022238657841, 1.8743684415086495e-294): 1.4839322572219835e+114,
    (0.4093382682818185, 7.018727977785378e-293): 5.592945514045507e+119,
    (0.4479756320393924, 2.9376759117026085e-236): 4.389783177551227e+105,
    (-0.4027147695562945, 2.6106330328070264e-308): 1.0752341092328243e+124,
    (-0.3964550070946029, 2.124145646075499e-262): 8.123983503208038e+103,
    (0.6236460812174391, 1.0485013505988487e-289): 1.8414404839718719e+180,
    (0.594293982862409, 3.7786991410899165e-270): 1.4822758546145662e+160,
    (0.5089984581664899, 8.038682857599363e-237): 1.841103257586478e+120,
    (-0.5979551268397725, 8.523742856333412e-302): 1.2002392368750207e+180,
    (-0.5473282710699707, 1.0851598367258242e-227): 1.9875524438773168e+124,
    (-0.31579515508989275, 9.398873560535205e-269): 7.729532526274067e+84,
    (0.5638144766802033, 1.9657604821833614e-240): 1.6477986365113352e+135,
    (-0.3655114221881417, 3.30909765976418e-301): 1.0575898299370911e+110,
    (-0.6769250519518872, 6.320101462776793e-229): 3.179834130495577e+154,
    (-0.388840380349768, 2.572133034698763e-234): 1.0086481971741476e+91,
    (0.47350578589593795, 7.096888931814166e-259): 2.230826381867311e+122,
    (-0.2945273519481997, 9.874825396125399e-287): 3.2238113584733557e+84,
    (-0.3392559087538207, 2.8837911780528075e-305): 3.4521187903628632e+103,
    (-0.708596180918635, 1.2848141721181094e-290): 2.7342048369022697e+205,
    (-0.5390550545384103, 5.502048053288577e-287): 2.4417198350562195e+154,
    (0.5374160445636544, 8.229714360874823e-277): 2.8259116750215287e+148,
    (0.5207973588411858, 3.9061866799824036e-225): 9.083662489685592e+116,
    (-0.6002921194407176, 3.2590459721374804e-229): 1.6267562992158736e+137,
    (0.26173032400700946, 4.340643275795951e-297): 7.640848563402831e+77,
    (-0.6867077184974977, 6.407697234499203e-283): 6.463257194953062e+193,
}

# ln S at box-A points (|nu| <= 100, z in [1e-12, 1e6], t in [1e-8, 1e6],
# log-uniform, random.Random(102)) where S exceeds the double range: the
# y-form integral in ln y, scaled by its peak, in mpmath at 30 and 45
# digits, agreeing to 20 digits with the endpoint integral in ln tau at 45
LOG_S_OVERFLOW = {
    (-68.84652357362076, 1.0155572616677997e-06, 0.0446501653030621): 778.80202286015861753,
    (58.32618927711121, 6.270973897588941e-06, 0.0002757387472399531): 916.17709696408640561,
    (-99.42543974895119, 1.0130997520848524e-09, 9.058681236605887e-05): 1197.1781516701326458,
    (79.52286539548172, 5.1423090425082234e-06, 1.0382395946893359e-06): 1290.0627255770326301,
    (-97.58461968982827, 1.4160792069317522e-12, 0.00450988338292661): 2197.6741980044547382,
    (-48.36708934253062, 2.295311341873478e-09, 0.003766667732132313): 721.1231822163010894,
    (93.09891902301337, 0.03094107532226211, 0.10755083618211006): 715.05245469692089994,
}

# lower incomplete gamma gamma(a, x), continued to negative non-integer
# orders: x^a e^-x times the Kummer series in mpmath at 60 digits, agreeing
# to 60 digits with Gamma(a) - Gamma(a, x) in mpmath at 80 digits, rounded
# to double; (-1.999, 0.5) sits next to the pole at a = -2.  The last six
# are the small-argument anchors (order nu - floor(nu), x0 = z^2/4t) of the
# six grid-table seed-2 cells at orders -3.029 and -0.962 that the
# small-endpoint series took from the oracle when every sum took one
# rounding rule: mpmath.gammainc against mpmath.quad of
# (1/a) int_0^(x^a) e^(-u^(1/a)) du, at 30 and 50 digits, all four within
# 1e-26
LOWER_GAMMA_REF = {
    (-2.5, 1.3): -0.9793133888802589,
    (-0.7, 0.2): -6.4184281728831465,
    (-5.3, 12.0): 0.019241658279241375,
    (-1.999, 0.5): 499.57623066532267,
    (-13.7, 0.04): -9.915632695092996e17,
    (3.7, 2.0): 0.7768867884195582,
    (0.9706895145928329, 1.2439782630124288): 0.7356503944288733,
    (0.9706895145928329, 1.2306624708475766): 0.731810685293841,
    (0.9706895145928329, 1.217489213585667): 0.7279602180008081,
    (0.9706895145928329, 1.2044569655045791): 0.7240995097735942,
    (0.037700911817872385, 0.8125765621581401): 25.67635835993787,
    (0.037700911817872385, 0.8038785800941082): 25.671600643072765,
}

# E1(x) at the x0 of the same six cells: mpmath.e1 against mpmath.quad of
# e^-s/s from x, at 30 and 50 digits, all four within 1e-26
E1_REF = {
    1.2439782630124288: 0.14780109035579778,
    1.2306624708475766: 0.1509238317846307,
    1.217489213585667: 0.1540882066420362,
    1.2044569655045791: 0.15729431544506514,
    0.8125765621581401: 0.30363153541424187,
    0.8038785800941082: 0.30842759997261726,
}

# modified Bessel function I_order(z): mpmath.besseli at 60 digits, agreeing
# to 60 digits with its power series summed in mpmath at 80 digits, rounded
# to double.  The last six are I_-nu(z) of the six cells above, which the
# split form takes: mpmath.besseli against mpmath.quad of Poisson's
# integral (DLMF 10.32.2), at 30 and 50 digits, all four within 1e-26
BESSEL_I_REF = {
    (0.3, 0.9): 1.019616121069751,
    (2.7, 1e-3): 2.930995217638504e-10,
    (22.746602411651615, 0.0014223045930853047): 2.124168981065068e-94,
    (1.9919421798402084, 0.037746421311855016): 0.00018528057329429183,
    (4.5, 1.0): 0.0008834468773783062,
    (3.029310485407167, 0.3438090432309485): 0.0007806151291367538,
    (3.029310485407167, 0.64774359715938): 0.005418152351619812,
    (3.029310485407167, 1.22036280290374): 0.03941521039585637,
    (3.029310485407167, 2.2991896442391617): 0.33676216031067147,
    (0.9622990881821276, 0.3438090432309485): 0.18939264048995347,
    (0.9622990881821276, 0.64774359715938): 0.3618789346352657,
}

# S at negative non-integer order and small argument: the split form (lower
# incomplete gammas and I_-nu) in mpmath at 60 digits, agreeing to 58 digits
# or better with K minus the sum of upper incomplete gammas in mpmath at
# 300-500 digits, rounded to double.  The first point is 0.008 from integer
# order, where the two parts of the split form cancel (peak/|S| ~ 360); the
# second gave OverflowError in the K form
S_SMALL_Z_SPLIT = {
    (-1.9919421798402084, 0.037746421311855016, 0.000409201433594809): 3.1796726271886955e-05,
    (-35.79395168877865, 1.0064666361294206e-08, 3.2557370575532046e-05): 3.5612208685481444e134,
    (-4.6, 0.8, 0.11): 4.431699235364072e-05,
    (-12.7, 0.01, 0.3): 1.1401461122694829e21,
    (-2.3, 0.5, 1.7): 5.441695199833771,
    (-0.3, 0.9, 5.0): 0.5031826883692297,
    (-7.45, 1e-4, 20.0): 9.362553407328788e34,
}

# S at 20 split-form points drawn with random.Random(29): nu = -m with m
# uniform on [0, 30], z log-uniform on [1e-4, 1] and t on [1e-4, 100], kept
# where the split form returns a normal double.  The split form in mpmath,
# each gamma(m - k, t) as t^(m-k) e^-t 1F1(1; m-k+1; t)/(m - k), so no
# Gamma(b) - Gamma(b, t) cancels, at doubling precision from 40 digits until
# two agree to 30 digits (80 did for all); it agrees to 70 digits or better
# with K minus the upper-gamma sum, summed the same way (up to 320 digits,
# where that form cancels), rounded to double.  (-18.54, 0.129, 0.000394)
# cancels to 1e-5 relative in doubles
S_SPLIT_SEEDED = {
    (-16.443571614350972, 0.0024172818620524744, 11.72482937542231): 2.3681672915249317e+59,
    (-8.657923062160297, 0.01099968137483411, 0.011558079424600217): 35.33943736620048,
    (-13.341098573549916, 0.00079292163116235, 0.012514093272034453): 3.7126159989209994e+18,
    (-29.962203315918888, 0.0020758494822880505, 0.4432683416254762): 7.107994775592553e+76,
    (-12.588506080824143, 0.08352461402969519, 0.04822198754137833): 0.22326338252376507,
    (-5.113073636467947, 0.005440649786796229, 0.028077649056856946): 14563.866769257822,
    (-23.78152765716293, 0.017800237682459245, 0.0015080220038880025): 9.183619445358604e-21,
    (-20.215356369859855, 0.0015613550044030343, 0.11785414759780435): 2.4616135943017918e+42,
    (-6.595687825698474, 0.004395598092458988, 5.208094240851614): 1.8951433993790833e+19,
    (-15.471114846396377, 0.10216249931266944, 3.4708613451318904): 2.809481894417159e+25,
    (-17.612803885631152, 0.038075125486170924, 0.02419471408196247): 1.861895167918479,
    (-18.538560311893598, 0.12851495001445726, 0.00039364257107740047): 4.493773351419249e-48,
    (-28.128896554481763, 0.0029440810421574965, 0.0006833938201624302): 7.484868498665306e-12,
    (-4.5000065912084795, 0.0023051745921510917, 0.0002603726941841055): 0.00013660267059491433,
    (-11.935801766063209, 0.004574612737288978, 0.8552222798881892): 9.73059219265986e+28,
    (-13.997633967087333, 0.5509899307422667, 0.9041682940765132): 235714.07631237974,
    (-9.630614238712232, 0.31592577361387253, 1.5642289614936895): 48509783.035873495,
    (-29.01953428276477, 0.08657130374692121, 62.193589437002956): 6.08369162515424e+68,
    (-6.156543345369841, 0.0012984902593906975, 68.20919939457688): 3.3085910464447277e+21,
    (-0.6562943902295082, 0.4954755946165267, 28.999948548084284): 1.207959476657026,
}

# S at negative non-integer order past z = 1, where the split form's terms
# fall below target and then rise again as the pole of gamma(m - k, t) at
# k = m nears: the split form and K minus the upper-gamma sum in mpmath at
# 50 and 80 digits, all four agreeing to 47 digits or better, rounded to
# double.  Stopping at the first small terms left out 4.2x, 1.5x and 1.7x
# the estimate
S_SPLIT_TAIL = {
    (-23.016653505678356, 6.816216540820189, 8.768421039888455): 3577.1909085967727,
    (-20.7332, 6.12, 8.6461): 4853.87218086159,
    (-23.6853, 9.4602, 59.0428): 189335.99479453245,
}

# S at order 0, argument 6, endpoint 3 (z^2/4t = 3), a point where the
# alternating small-endpoint series misses the tight target: K minus the
# upper-gamma sum, the small-endpoint series and the defining integral in
# mpmath at 50 and 80 digits, agreeing to 50 digits, rounded to double
S0_6_3 = 0.0006219971640065616

# S where the alternating small-endpoint series gave up (NON_CONVERGENCE) or
# missed the tight target (TAIL_TOO_LARGE) and evaluate fell through to the
# oracle: five cells of grid-table's seed-1 sweep and eight points of
# scatter-wide's seed 1, both signs of the order, z^2/4t from 2.4 to 515;
# then (28.102, 6.969, 4.465), where the positive-term sum's backward
# recurrence at the order itself lost about 3e-10 to rounding, and (0, 6, 3), equal to
# S0_6_3.  Each is (1/2)(z/2t)^nu e^(-x0 - t) sum_n t^n U(n + 1, nu + 1, x0)
# summed with mpmath.hyperu at 40 and 60 digits, and the alternating series
# sum_k (-z^2/4)^k/k! Gamma(nu - k, x0) with mpmath.gammainc at 60 + t/2.3
# and 80 + t/2.3 digits (300 and 360 at t = 212), all four agreeing to 38
# digits or better, rounded to double
S_TRICOMI = {
    (-3.577090503925066, 8.114313555044259, 2.8486377388736694): 3.3399495926105192e-06,
    (-0.4908169206822577, 15.287540435906578, 23.954092629753195): 7.353102265478237e-08,
    (0.5033793504929474, 8.114313555044259, 6.676275103537186): 0.00012482188862230777,
    (3.2996607098591584, 15.287540435906578, 4.360996355769948): 7.97071398231139e-09,
    (1.9969567247279603, 15.287540435906578, 15.647005110496853): 8.276363458198892e-08,
    (-21.938145353255926, 107.45639840020016, 51.384890733336015): 1.2096076396278364e-49,
    (5.254836368613567, 230.86627495607647, 212.38346551646225): 4.765528773102016e-102,
    (28.873263488889535, 45.39214741612805, 5.000180149805196): 8.063731015443306e-31,
    (-25.631313266957296, 115.21131775780701, 6.450237463629058): 2.335638549139739e-254,
    (8.25078075989115, 11.39724030530777, 13.648120768689612): 6.60831444975852e-05,
    (-2.4282717569025465, 24.251901170970267, 2.9888042768963157): 7.27874857380549e-27,
    (21.470850727412902, 28.38129412274689, 11.496529785853626): 2.3814607244015325e-10,
    (-18.39975852270161, 17.551191562784254, 3.1728920705795414): 1.11312211988583e-22,
    (28.102, 6.969, 4.465): 2848947263582.3804,
    (0.0, 6.0, 3.0): 0.0006219971640065616,
}

# S at the eight cells that left the oracle for the small-endpoint series
# when its positive-term sum took h_0 = U(1, nu + 1, x0) from its own
# recurrence: grid-table seed 2's four at order -0.962, held-out grid-table
# seed 3's three at order -1.971 and scatter-wide seed 1's one at -1.992,
# x0 from 0.87 to 1.24.  (1/2)(z/2t)^nu e^(-x0 - t) sum_n t^n U(n + 1,
# nu + 1, x0) with mpmath.hyperu, and the y-form integral in s = y - x0,
# scaled by its value at s = 0 or 1, with mpmath.quad over breakpoints at
# powers of two from 1/64 to 64, each at 30 and 50 digits, all four within
# 3e-31 relative, rounded to double
S_CLOSED_RECURRENCE = {
    (-0.9622990881821276, 0.3438090432309485, 0.023755370516108293): 0.007721401614249714,
    (-0.9622990881821276, 0.64774359715938, 0.08523290861628523): 0.013963736032289707,
    (-0.9622990881821276, 1.22036280290374, 0.305810793658888): 0.02242113919078239,
    (-0.9622990881821276, 2.2991896442391617, 1.097231609674415): 0.02380665121766614,
    (-1.9705138498026988, 0.5261355170227562, 0.06231727387915222): 0.0026550992282292525,
    (-1.9705138498026988, 0.9912505767357098, 0.22359080891439395): 0.008457812558809332,
    (-1.9705138498026988, 1.8675373056717228, 0.8022310142760881): 0.019530161837674236,
    (-1.9919421798402084, 0.037746421311855016, 0.000409201433594809): 3.1796726271886955e-05,
}

# S at six points with nu > x0 + 1, where the positive-term sum's step to
# n = 0 cancels, so the sum is read at the reflected point: drawn with
# random.Random(35), x0 log-uniform on [0.01, 30], the order uniform on
# [x0 + 1, 30], t log-uniform on [0.001, 30].  The alternating series
# sum_k (-z^2/4)^k/k! Gamma(nu - k, x0) with mpmath.gammainc at 60 and 80
# digits, and (1/2)(z/2t)^nu e^(-x0 - t) sum_n t^n U(n + 1, nu + 1, x0)
# with mpmath.hyperu at 50 and 70, all four agreeing to 48 digits or
# better, rounded to double
S_ABOVE_X0_PLUS_1 = {
    (22.967467013578798, 2.6783063716820963, 2.217087544070892): 5.7200524167264544e17,
    (16.56275818986593, 29.272235361140385, 21.037057727973046): 4.038532716314633e-12,
    (22.91037288766078, 2.9938328143805513, 2.3975700029594886): 3.719379641918674e16,
    (21.303284713842938, 1.7266516996320633, 0.04379356622828772): 5.547795450774258e19,
    (19.267892457137954, 5.344669916127055, 2.2881682422385836): 28341815.89060478,
    (28.71012200898102, 0.02881464663944988, 0.0011232692042206116): 4.259062559071233e81,
}

# S at points of the two upper-gamma series, drawn with random.Random(13):
# 30 small-endpoint points with z^2/4t log-uniform on [2, 700], t
# log-uniform on [0.01, 20] and the order uniform on [-30, 30], kept where
# S is a normal double, and 10 small-argument points of the K form (orders
# in [0, 30] or negative integers, z in [1e-4, 1], t in [0.05, 30]), plus
# one where that form overflowed in x**b.  The small-endpoint series
# summed with mpmath.gammainc at 60 and 90 digits (150 and 200 where the
# sum cancels), agreeing to 30 digits, rounded to double; seven of them
# agree to 1e-16 with the defining integral in mpmath
S_SERIES_SMALL_T = {
    (11.044915080966646, 8.166598446638103, 1.8283409631631464): 0.0655088448442976,
    (-16.166483462071916, 6.8939800370851, 0.041028068210837196): 2.0537971616550042e-160,
    (14.04141613276638, 1.0241703959067527, 0.055369372820416464): 40968729839932.83,
    (-17.165548170495555, 3.119775585416402, 0.5673955599559329): 5.322552744485734e-12,
    (20.259390630197892, 3.4569111224364932, 0.2658640459204191): 1713455307412.7886,
    (-13.449788763650599, 1.7753096174340903, 0.011159423569678566): 3.4552903048495273e-59,
    (18.58437667266363, 11.918841030291668, 7.518600787352567): 0.5531428843782832,
    (14.685009168132453, 69.30943882481571, 5.343880958923137): 2.4374861229684474e-91,
    (-14.597521414278239, 93.163731824804, 4.171194082898981): 8.764343564918221e-247,
    (15.300231076644067, 21.684184384365125, 0.40447670460932444): 5.2213161891473e-108,
    (-8.147842486815435, 7.553927840935081, 0.261847659001069): 4.784446254467609e-36,
    (-22.958396965572582, 3.282172372825948, 0.1085764605372888): 1.316965701305205e-40,
    (29.14087113569221, 64.81827168067053, 4.3159430508903815): 2.1052224071835686e-85,
    (14.904689485052728, 17.58656529929668, 0.6753327842455054): 1.9695992265682088e-36,
    (-3.396002708684236, 5.49778446549729, 1.714779520437216): 3.186509597855712e-05,
    (1.3615980846800504, 1.0248668008959327, 0.046652679244409426): 0.008481485662301214,
    (6.329926675619184, 3.4049455773521866, 0.32861548078233255): 0.4321998460675128,
    (-0.54857184736737, 1.4818961520882175, 0.027021650857076484): 5.454258302289684e-12,
    (-18.33186297049535, 1.3804866050324864, 0.05997651597666948): 2.2328921190259763e-25,
    (9.073906226047548, 1.0929789458654247, 0.017453620988754418): 70054.95446799316,
    (13.132919411800202, 20.31551274579281, 0.19336340536698834): 5.618581593687253e-213,
    (-21.49526618509267, 5.124374528924334, 0.013887775597627187): 9.948948510168836e-258,
    (8.343330884143398, 72.49317637270897, 5.844441761944157): 6.592889325574801e-97,
    (22.094491236483037, 2.17387172253465, 0.2317105874843616): 5.118169714937002e+18,
    (-17.816502434584535, 80.25267917171115, 4.480177957609913): 1.369979324056144e-178,
    (12.990665431406974, 14.320658945034683, 0.1726162191645207): 1.5578045033012076e-111,
    (6.210000174191222, 16.94235769204204, 16.08056460636139): 3.967066532016489e-08,
    (7.03442977781441, 5.251726648850382, 0.04998962080682968): 5.701617216440376e-51,
    (-8.438931591946535, 14.664352431442694, 0.8946463720361701): 4.649750771413702e-37,
    (-12.280495676603376, 8.721128497339283, 0.13389162388205): 1.5720183475502464e-83,
}
S_SERIES_SMALL_Z_K = {
    (20.520938237449407, 0.0002812164412203624, 0.2116423651758173): 3.2029252874544045e+96,
    (19.30580413232273, 0.01677304692768197, 1.6157825101377377): 9.568483744495198e+55,
    (13.187718054359358, 0.002356330536462612, 0.09044797687796682): 1.6216379496044766e+47,
    (29.937413180750603, 0.00030624201526558553, 0.34402599268275946): 5.8041015107314645e+144,
    (17.91776724882601, 0.0002040370941980314, 1.0101757297885716): 4.6074171048702575e+85,
    (25.03510148133005, 0.0001054056532726638, 0.42556296817834555): 4.4133836978224464e+130,
    (29.093619331590858, 0.011661277768499671, 1.038559380726161): 2.1027355493211008e+94,
    (8.89668251547408, 0.00013395504261577717, 1.2355783591478002): 2.2084970910575143e+41,
    (-24.0, 0.0003850065526850156, 0.7597785461424894): 2.0518793526357046e+84,
    (-7.0, 0.001081907276159657, 2.150581861111724): 1.7621402134402648e+23,
    (37.59408476864124, 0.0024955358148473924, 1.4958339344322494e-06): 2.333068689832587e+151,
}

# S at the three scatter-wide points where the small-endpoint series, one
# incomplete gamma per term, rounded each term's exponent near -600 to more
# than its estimate (29x, 19x and 27x); computed as above
S_SERIES_EXPONENT_ROUNDING = {
    (20.850449132580025, 79.73260932023716, 2.4590508352247955): 2.3458306466051864e-260,
    (21.646533386603018, 83.35985034449226, 2.503595474116376): 7.437183306646603e-280,
    (26.699879315644125, 81.031692528042, 2.3090672352270647): 2.178385422153883e-280,
}

# S at the 19 points of grid-table seeds 1, 2, 5 and scatter-wide seeds 1,
# 2, 3 where, at DEFAULT_TOLERANCES, the small-endpoint series meets its
# target with a peak partial sum over 1e6 |S|: its estimate counts the
# cancellation, and evaluate takes it.  The series summed with
# mpmath.gammainc at 60 and 90 digits, agreeing to 1e-39, rounded to double
S_DEFAULT_SMALL_T = {
    (-3.577090503925066, 15.287540435906578, 10.220749026569875): 6.557009126910463e-08,
    (-1.7683775087085118, 15.287540435906578, 10.220749026569875): 6.119498402890358e-08,
    (-0.4908169206822577, 15.287540435906578, 10.220749026569875): 6.231270973839486e-08,
    (0.5033793504929474, 15.287540435906578, 10.220749026569875): 6.612732329453865e-08,
    (1.9969567247279603, 15.287540435906578, 10.220749026569875): 7.871286321355088e-08,
    (-3.029310485407167, 15.375607838871288, 9.226581272782791): 4.313152707682092e-08,
    (-3.2513988700735323, 12.551773237954006, 9.541227023422378): 1.3582518217042958e-06,
    (-6.035835144207564, 26.3884208071299, 12.88133872291071): 1.6346657228819252e-13,
    (21.470850727412902, 28.38129412274689, 11.496529785853626): 2.3814607244015325e-10,
    (-17.039670467054403, 30.72797101576629, 17.341577834001168): 9.365312807417932e-15,
    (23.002099571699247, 28.536540062717553, 15.546979511917668): 5.803211426040365e-10,
    (14.455461365922723, 37.835091385203384, 13.166803412460084): 5.799535531190705e-17,
    (-16.844792672608747, 19.60250925133264, 9.927002867506433): 1.0752997587683171e-10,
    (10.344323694371127, 40.8664069412529, 16.525042066818685): 7.504020939813336e-19,
    (6.977539185353791, 18.065601583193054, 16.029634393234566): 1.5303701209367235e-08,
    (-15.47017490605109, 48.912667304727705, 24.96235367513124): 2.28281797522823e-23,
    (-15.622445875523741, 50.61405110954527, 27.533205465099773): 1.1318392043557443e-23,
    (0.9437012137919467, 25.25215509005304, 10.000554829246076): 4.3637734799589894e-13,
    (15.537652253634157, 27.815831795620415, 10.600078174095877): 1.1747041878497464e-11,
}

# Exact outputs of the quadrature kernel, frozen before its straight-line
# rewrite so that any change to a float operation of the GK15 panel or the
# bisection loop shows: float.hex of value and error estimate, then the
# subdivision count (and for integrate_adaptive whether it converged).
# QUADRATURE_KERNEL is keyed by the integrands of test_quadrature's
# KERNEL_INTEGRANDS; ORACLE_KERNEL by (point, form) at core.TIGHT
QUADRATURE_KERNEL = {
    "bump_breakpoints": ("0x1.73b5e43c0de58p-13", "0x1.2ecad61996357p-59", 12, True),
    "oscillating_error_floor": ("-0x1.f9cd3eeaa05d4p-14", "0x1.b8d73ba216e79p-48", 120, False),
    "exp_tail": ("0x1.0000000000000p+0", "0x1.23c00436304b6p-41", 3, True),
    "gamma_tail_breakpoints": ("0x1.d6e2bc3b82b05p+0", "0x1.9e7475d1da8f6p-44", 4, True),
    "depth_capped": ("0x1.7ce98890d302dp+0", "0x1.dfa4bf25b541bp-4", 6, False),
}
ORACLE_KERNEL = {
    ((0.0, 3.0, 3.0), 2): ("0x1.fedd942ac8000p-6", "0x1.8e64df665e4a8p-46", 3),
    ((0.0, 3.0, 3.0), 4): ("0x1.fedd942ac7fffp-6", "0x1.0ca31605aea76p-46", 4),
    ((0.0, 3.0, 3.0), 5): ("0x1.fedd942ac8001p-6", "0x1.4f2b7ad4aad06p-51", 2),
    ((-0.5, 1.0, 0.7), 2): ("0x1.c0c152a7acdc6p-3", "0x1.3337e680f379cp-46", 4),
    ((-0.5, 1.0, 0.7), 4): ("0x1.c0c152a7acdc6p-3", "0x1.8d03908687774p-43", 3),
    ((-0.5, 1.0, 0.7), 5): ("0x1.c0c152a7acdc9p-3", "0x1.65325eb084e1dp-49", 2),
    ((2.0, 8.0, 3.0), 2): ("0x1.584a90dcddcbfp-14", "0x1.99b72b75efa3ap-60", 3),
    ((2.0, 8.0, 3.0), 4): ("0x1.584a90dcddcc2p-14", "0x1.329c7f5599b45p-54", 4),
    ((2.0, 8.0, 3.0), 5): ("0x1.584a90dcddcc0p-14", "0x1.ad5c1aa09a241p-56", 2),
    ((4.5, 0.3, 40.0), 2): ("0x1.cc818942e3ed8p+14", "0x1.73d837bb951efp-26", 17),
    ((4.5, 0.3, 40.0), 4): ("0x1.cc818942e3edap+14", "0x1.fef685aa1c97cp-28", 10),
    ((4.5, 0.3, 40.0), 5): ("0x1.cc818942e3ee1p+14", "0x1.7e3b22af4d40ap-26", 4),
    ((-4.434559218710991, 3.4031986150386595e-06, 320.01580148302554), 2): ("0x1.50fbf76fdc2d9p+87", "0x1.9a94fee4aa3a5p+43", 13),
    ((-4.434559218710991, 3.4031986150386595e-06, 320.01580148302554), 4): ("0x1.50fbf76fdc2e3p+87", "0x1.f9e7809e4f459p+46", 12),
    ((-4.434559218710991, 3.4031986150386595e-06, 320.01580148302554), 5): ("0x1.50fbf76fdc2a2p+87", "0x1.008ce16358613p+46", 15),
    ((-29.963652409842208, 51.2832099354792, 1.1788820666918924), 2): ("0x1.4547ea4f0e95cp-950", "0x1.b18a9a4a31d9ap-992", 6),
    ((-29.963652409842208, 51.2832099354792, 1.1788820666918924), 4): ("0x1.4547ea4f0ed18p-950", "0x1.f24aa3af691b3p-993", 8),
    ((-29.963652409842208, 51.2832099354792, 1.1788820666918924), 5): ("0x1.4547ea4f0e97dp-950", "0x1.ea0fc08551f7ap-993", 2),
    ((26.504583450738707, 2.077974653052133, 0.0013578072839012679), 2): ("0x1.427085aa74216p-904", "0x1.19706432c74c8p-946", 7),
    ((26.504583450738707, 2.077974653052133, 0.0013578072839012679), 4): ("0x1.427085aa742e2p-904", "0x1.cf75b8d58a30fp-945", 8),
    ((26.504583450738707, 2.077974653052133, 0.0013578072839012679), 5): ("0x1.427085aa741cbp-904", "0x1.0d2aa218c42f1p-946", 2),
    # form 5 at an ordinary point, and at tiny z at negative order, where
    # its ladder of breakpoints is long
    ((2.0, 8.0, 0.3), 5): ("0x1.50ac830470084p-77", "0x1.75c38285b8ef0p-121", 2),
    ((-22.746602411651615, 0.0014223045930853047, 24.80997912675126), 5): ("0x1.178715ccc4d52p+305", "0x1.e99395ccb97e2p+263", 7),
    ((-0.7, 1e-12, 2.0), 5): ("0x1.d29fd583e701bp+27", "0x1.c2da31675e95ap-13", 28),
}

# Exact outputs of the series kernel, frozen before its loop took the
# factors straight from the order generators, so that any change to a
# float operation of the sums shows: float.hex of value and error
# estimate, the work count and the flags, keyed by (expansions function,
# point, tolerance name in core).  Seeded points (random.Random(18)) of
# the small-endpoint series, the small-argument series' K form and split
# form, and the large-endpoint sum, plus four fixed ones: a cancelling
# small-endpoint sum, a cancelling K form, and two points past z = 1 where
# the split form follows the K form.  The large-endpoint points at nu =
# -21.6 and -22.25 have b = nu + n + 1 < 0 at the first omitted outer term,
# so their estimates were raised afterwards, when that term took its inner
# sum's ceiling: from 0x1.10858a18694c7p+1 (TIGHT), 0x1.47180c7c8bb9cp+1
# (DEFAULT_TOLERANCES) and 0x1.3a956d28edaa1p-27 (both); values and work
# are the frozen ones.  Where the correction is below EPS^2 K both K-based
# candidates later returned K alone, with the same value and estimate bits
# and a lower work: series_small_z at orders 25.748 (TIGHT 4,
# DEFAULT_TOLERANCES 2), 9.855 (5, 2), 11.898 (5, 2) and 29.867 (3, 2), now
# 0 at both; asympt_large_t at orders 21.542 (57, now 55), -28.763 (132,
# now 77), -6.174 (37, now 26), 4.640 (12, now 10) and -28.971 (90, now 35)
# at both, K's own work.  The small-endpoint entries are the paper's
# alternating sum, keyed by its private name _alternating_small_t since
# series_small_t became the candidate that sums in positive terms first.
# The estimates of 66 entries were re-frozen when every sum took one
# rounding rule (core._sum_rounding), at 0.72 to 1.64 times the old ones;
# values and work are the frozen ones.  The 21 split-form entries
# (series_small_z at negative non-integer order) were re-frozen when the
# split form took the one incomplete-gamma sum (expansions._gamma_sum), its
# prefactor, exponent and stopping rule; new/old estimate, TIGHT then
# DEFAULT_TOLERANCES: order -0.491 1.051 (TIGHT only: at DEFAULT_TOLERANCES
# the K form meets the target first), -3.577 1.020/1.001, -5.922
# 0.663/0.663, -21.795 0.410/0.410, -25.909 0.380/0.380, -26.787
# 1.542/1.542, -22.195 1.547/1.547, -14.093 1.453/1.454, -3.762
# 1.167/1.168, -19.088 1.149/1.149, -14.110 1.491/1.495.  Three values
# moved, each by at most 0.17 of its new estimate: -3.577 by 128 ulps at
# both tolerances, -25.909 by 50 and -14.110 by 22; work is unchanged.
# 30 entries of the K-based candidates were re-frozen when asympt_large_t
# became the small-argument K form (expansions._k_form), stopped against
# K minus its partial sum.  asympt_large_t: the K-alone exits at 21.542,
# -28.763, -6.174, 4.640 and -28.971 keep their bits, work now 0; -22.246,
# 0.705 and -0.036 keep their bits, work now 2; at -21.600 new/old
# estimate 0.946 (TIGHT) and 0.832 (DEFAULT_TOLERANCES), work 223 and 209
# now 9 and 8, value moved by 3 and 20 ulps, at most 0.13 of the new
# estimate.  series_small_z, new/old estimate and work: order 0 TIGHT
# 1.000, 54 now 63, and DEFAULT_TOLERANCES 0.983, 50 now 53; -0.491
# DEFAULT_TOLERANCES 0.661, 18 now 19; -3.577 DEFAULT_TOLERANCES 21.85,
# 17 now 18, the K form now meeting the target before the split form;
# -11 DEFAULT_TOLERANCES 1.002, 3 now 4; -10 TIGHT 1.026, 9 now 14, and
# DEFAULT_TOLERANCES 0.974, 8 now 13; 11.056 at both tolerances, 2.810 at
# both and 3.910 TIGHT keep their bits, work now 2.  The largest move is
# 0.56 of the new estimate (-0.491), and every value lies within its
# estimate plus that of forms 4 and 5 at TIGHT
SERIES_KERNEL = {
    ('_alternating_small_t', (6.210000174191222, 16.94235769204204, 16.08056460636139), 'TIGHT'): ('0x1.54c4d2038425ap-25', '0x1.4386a93c6f8a0p-40', 69, ()),
    ('_alternating_small_t', (6.210000174191222, 16.94235769204204, 16.08056460636139), 'DEFAULT_TOLERANCES'): ('0x1.54c4de360091cp-25', '0x1.4b4a9f2ab3c4fp-40', 57, ()),
    ('series_small_z', (0.0, 1.0, 0.02), 'TIGHT'): ('0x1.2455e9fc00000p-23', '0x1.141f2cd5390cbp-33', 63, ()),
    ('series_small_z', (0.0, 1.0, 0.02), 'DEFAULT_TOLERANCES'): ('0x1.2455e69a00000p-23', '0x1.142f4e7fd7228p-33', 53, ()),
    ('series_small_z', (-0.4908169206822577, 2.286020495870304, 0.7939473854841949), 'TIGHT'): ('0x1.04d93aa196100p-6', '0x1.781b5e8476c08p-44', 18, ()),
    ('series_small_z', (-0.4908169206822577, 2.286020495870304, 0.7939473854841949), 'DEFAULT_TOLERANCES'): ('0x1.04d93aa194e7cp-6', '0x1.9593695cc3127p-46', 19, ()),
    ('series_small_z', (-3.577090503925066, 1.2133728884982256, 0.22128206837785758), 'TIGHT'): ('0x1.90260ebcb10c0p-12', '0x1.659ee09227abep-51', 19, ()),
    ('series_small_z', (-3.577090503925066, 1.2133728884982256, 0.22128206837785758), 'DEFAULT_TOLERANCES'): ('0x1.90260ebcb0000p-12', '0x1.6ce5bd27ceb4cp-42', 18, ()),
    ('_alternating_small_t', (-18.123623750248775, 1.4813245042916559, 0.05080282250549155), 'TIGHT'): ('0x1.554aa27d473e4p-92', '0x1.929fc853cf4a8p-136', 9, ()),
    ('_alternating_small_t', (-18.123623750248775, 1.4813245042916559, 0.05080282250549155), 'DEFAULT_TOLERANCES'): ('0x1.54dd7d09731a9p-92', '0x1.bbc7f12354a2ap-102', 2, ()),
    ('_alternating_small_t', (-1.2136475911114104, 0.9303925083352805, 0.0028110239294096024), 'TIGHT'): ('0x1.996be8485c689p-128', '0x1.b1ac4f8f825f9p-172', 7, ()),
    ('_alternating_small_t', (-1.2136475911114104, 0.9303925083352805, 0.0028110239294096024), 'DEFAULT_TOLERANCES'): ('0x1.996b80a99a612p-128', '0x1.9edd484c68b27p-146', 2, ()),
    ('_alternating_small_t', (-17.034229017962318, 0.08636381190299143, 0.00010876612999534513), 'TIGHT'): ('0x1.110b0098272efp-178', '0x1.f4cf9bd05b35ap-222', 5, ()),
    ('_alternating_small_t', (-17.034229017962318, 0.08636381190299143, 0.00010876612999534513), 'DEFAULT_TOLERANCES'): ('0x1.110b007e837efp-178', '0x1.9a40a6b8597e1p-206', 2, ()),
    ('_alternating_small_t', (2.273837482593592, 6.981182106934517, 0.07673539286375226), 'TIGHT'): ('0x1.070a19140799cp-225', '0x1.079c3a2a47b62p-268', 10, ()),
    ('_alternating_small_t', (2.273837482593592, 6.981182106934517, 0.07673539286375226), 'DEFAULT_TOLERANCES'): ('0x1.063c123a4078cp-225', '0x1.a6981b653d910p-234', 2, ()),
    ('_alternating_small_t', (24.62141980988264, 12.000574587783975, 2.181619402547348), 'TIGHT'): ('0x1.68d696ec95967p+10', '0x1.f3ddb67803e86p-33', 22, ()),
    ('_alternating_small_t', (24.62141980988264, 12.000574587783975, 2.181619402547348), 'DEFAULT_TOLERANCES'): ('0x1.68d696ec952e8p+10', '0x1.60a667ab00878p-31', 20, ()),
    ('_alternating_small_t', (-19.118532217139837, 0.4966192901201329, 0.0030455030060106735), 'TIGHT'): ('0x1.0eb294fce6149p-157', '0x1.c8ffda181a79dp-201', 7, ()),
    ('_alternating_small_t', (-19.118532217139837, 0.4966192901201329, 0.0030455030060106735), 'DEFAULT_TOLERANCES'): ('0x1.0eb24671b76f7p-157', '0x1.3a7c83c1d75f6p-175', 2, ()),
    ('_alternating_small_t', (-4.416671094726578, 2.147590362313051, 0.11477605418323157), 'TIGHT'): ('0x1.22b3f60168348p-34', '0x1.f0efee48ab087p-80', 10, ()),
    ('_alternating_small_t', (-4.416671094726578, 2.147590362313051, 0.11477605418323157), 'DEFAULT_TOLERANCES'): ('0x1.22b37e5f8c309p-34', '0x1.e903feca4971bp-52', 4, ()),
    ('_alternating_small_t', (16.22060727657057, 0.5411657256912366, 0.016303933897426105), 'TIGHT'): ('0x1.a20fa2569e163p+70', '0x1.76528dc643e7ep+26', 7, ()),
    ('_alternating_small_t', (16.22060727657057, 0.5411657256912366, 0.016303933897426105), 'DEFAULT_TOLERANCES'): ('0x1.a20fa2569e163p+70', '0x1.7513e8c0470d6p+26', 6, ()),
    ('_alternating_small_t', (6.626981448399796, 1.1405146472160255, 0.018826756595098196), 'TIGHT'): ('0x1.0da6cd92fb361p+3', '0x1.eaee1067ee695p-43', 8, ()),
    ('_alternating_small_t', (6.626981448399796, 1.1405146472160255, 0.018826756595098196), 'DEFAULT_TOLERANCES'): ('0x1.0da6cd92fb362p+3', '0x1.e8cb39feed2ccp-43', 7, ()),
    ('series_small_z', (-11.0, 4.120136162645642e-05, 4.756176521365465), 'TIGHT'): ('0x1.46dc8c8650f00p+185', '0x1.1c3586da1f01bp+149', 4, ()),
    ('series_small_z', (-11.0, 4.120136162645642e-05, 4.756176521365465), 'DEFAULT_TOLERANCES'): ('0x1.46dc8c8650f00p+185', '0x1.1c3586da1f01bp+149', 4, ()),
    ('series_small_z', (11.055548056274265, 0.03225711537615664, 0.051897014821535206), 'TIGHT'): ('0x1.bfe9bd312d608p+86', '0x1.56eef4d9a6bdep+41', 2, ()),
    ('series_small_z', (11.055548056274265, 0.03225711537615664, 0.051897014821535206), 'DEFAULT_TOLERANCES'): ('0x1.bfe9bd312d608p+86', '0x1.56eef4d9a6bdep+41', 2, ()),
    ('series_small_z', (2.8096423141945026, 0.0003360601455676629, 0.09083517734005113), 'TIGHT'): ('0x1.fb7ed612957bfp+34', '0x1.256553c2be6bap-11', 2, ()),
    ('series_small_z', (2.8096423141945026, 0.0003360601455676629, 0.09083517734005113), 'DEFAULT_TOLERANCES'): ('0x1.fb7ed612957bfp+34', '0x1.256553c2be6bap-11', 2, ()),
    ('series_small_z', (25.748344553341216, 1.2129998471811086e-05, 0.0014381530318261255), 'TIGHT'): ('0x1.af9bbf1a0325ep+527', '0x1.e22fff7f0f845p+482', 0, ()),
    ('series_small_z', (25.748344553341216, 1.2129998471811086e-05, 0.0014381530318261255), 'DEFAULT_TOLERANCES'): ('0x1.af9bbf1a0325ep+527', '0x1.e22fff7f0f845p+482', 0, ()),
    ('series_small_z', (-10.0, 1.05679410319135, 0.6707688780075725), 'TIGHT'): ('0x1.7cdc640000000p-3', '0x1.2320e9dcf5742p-18', 14, ()),
    ('series_small_z', (-10.0, 1.05679410319135, 0.6707688780075725), 'DEFAULT_TOLERANCES'): ('0x1.7cdc640000000p-3', '0x1.21956ad963fb6p-18', 13, ()),
    ('series_small_z', (3.909946812752346, 0.00014233284641845988, 0.16461477863494642), 'TIGHT'): ('0x1.3a649c7b8a2bcp+55', '0x1.7a410c44a23cap+9', 2, ()),
    ('series_small_z', (3.909946812752346, 0.00014233284641845988, 0.16461477863494642), 'DEFAULT_TOLERANCES'): ('0x1.3a649c7b8a2bcp+55', '0x1.7a410c44a23cap+9', 2, ()),
    ('series_small_z', (9.854971711816475, 0.021229693800186748, 13.526382583615762), 'TIGHT'): ('0x1.8b258b3aa4127p+81', '0x1.2545dd5585c5bp+36', 0, ()),
    ('series_small_z', (9.854971711816475, 0.021229693800186748, 13.526382583615762), 'DEFAULT_TOLERANCES'): ('0x1.8b258b3aa4127p+81', '0x1.2545dd5585c5bp+36', 0, ()),
    ('series_small_z', (11.897515810815472, 0.0008457259735485334, 0.06442192863587676), 'TIGHT'): ('0x1.2c97da80bba94p+157', '0x1.da5fa4d328271p+111', 0, ()),
    ('series_small_z', (11.897515810815472, 0.0008457259735485334, 0.06442192863587676), 'DEFAULT_TOLERANCES'): ('0x1.2c97da80bba94p+157', '0x1.da5fa4d328271p+111', 0, ()),
    ('series_small_z', (29.866675818460017, 1.1999621946532426e-06, 11.727860732380442), 'TIGHT'): ('0x1.5e87c2ebe6436p+718', '0x1.a8786609a8d59p+673', 0, ()),
    ('series_small_z', (29.866675818460017, 1.1999621946532426e-06, 11.727860732380442), 'DEFAULT_TOLERANCES'): ('0x1.5e87c2ebe6436p+718', '0x1.a8786609a8d59p+673', 0, ()),
    ('series_small_z', (-5.92215595853413, 1.8802408046328562e-06, 0.0025350333399989985), 'TIGHT'): ('0x1.e5fee0d678a2cp+63', '0x1.415ed44ad5c92p+19', 4, ()),
    ('series_small_z', (-5.92215595853413, 1.8802408046328562e-06, 0.0025350333399989985), 'DEFAULT_TOLERANCES'): ('0x1.e5fee0d678a2cp+63', '0x1.415ed44ad5c92p+19', 4, ()),
    ('series_small_z', (-21.794826666346907, 1.9650090389083425e-05, 0.0007744238046283426), 'TIGHT'): ('0x1.d46b98cf490c8p+131', '0x1.3d07b2d0dd1acp+88', 4, ()),
    ('series_small_z', (-21.794826666346907, 1.9650090389083425e-05, 0.0007744238046283426), 'DEFAULT_TOLERANCES'): ('0x1.d46b98cf490c8p+131', '0x1.3d07b2d0dd1acp+88', 4, ()),
    ('series_small_z', (-25.909241282718938, 0.011361786883219684, 0.025006010985392835), 'TIGHT'): ('0x1.95a6e541fe845p+49', '0x1.2ae2a7fcccd5ap+5', 6, ()),
    ('series_small_z', (-25.909241282718938, 0.011361786883219684, 0.025006010985392835), 'DEFAULT_TOLERANCES'): ('0x1.95a6e541fe845p+49', '0x1.2ae2a7fcccd5ap+5', 6, ()),
    ('series_small_z', (-26.78745841456457, 0.11491449451238565, 3.751660183174196), 'TIGHT'): ('0x1.76b0bc4bdc097p+150', '0x1.37d0d6e26ef19p+107', 6, ()),
    ('series_small_z', (-26.78745841456457, 0.11491449451238565, 3.751660183174196), 'DEFAULT_TOLERANCES'): ('0x1.76b0bc4bdc097p+150', '0x1.37d0d6e26ef19p+107', 6, ()),
    ('series_small_z', (-22.195467625898363, 0.09515537736543722, 1.7730957528082998), 'TIGHT'): ('0x1.eacba4f16a3a8p+107', '0x1.2ea4bad120e99p+64', 6, ()),
    ('series_small_z', (-22.195467625898363, 0.09515537736543722, 1.7730957528082998), 'DEFAULT_TOLERANCES'): ('0x1.eacba4f16a3a8p+107', '0x1.2ea4bad120e99p+64', 6, ()),
    ('series_small_z', (-14.092867618941122, 3.3688562095344726e-06, 0.764189066275116), 'TIGHT'): ('0x1.f886c7df8945ap+258', '0x1.29eee7e88725bp+216', 4, ()),
    ('series_small_z', (-14.092867618941122, 3.3688562095344726e-06, 0.764189066275116), 'DEFAULT_TOLERANCES'): ('0x1.f886c7df8945ap+258', '0x1.2970c6368f436p+216', 3, ()),
    ('series_small_z', (-3.7615917323084673, 0.20961570528410725, 15.963358656777485), 'TIGHT'): ('0x1.51c5625d57dd1p+13', '0x1.e276b7f8d90f8p-32', 8, ()),
    ('series_small_z', (-3.7615917323084673, 0.20961570528410725, 15.963358656777485), 'DEFAULT_TOLERANCES'): ('0x1.51c5625d57dd1p+13', '0x1.dfd4a6d755261p-32', 7, ()),
    ('series_small_z', (-19.0883155475869, 0.0017132343931079038, 0.3157797466258711), 'TIGHT'): ('0x1.0afc8499a1ab1p+157', '0x1.a16176a78312ep+113', 5, ()),
    ('series_small_z', (-19.0883155475869, 0.0017132343931079038, 0.3157797466258711), 'DEFAULT_TOLERANCES'): ('0x1.0afc8499a1ab1p+157', '0x1.a0567a2308925p+113', 4, ()),
    ('series_small_z', (-14.110327861281013, 0.2769631914993399, 1.7455569628090182), 'TIGHT'): ('0x1.53982a546de5ap+44', '0x1.c2719579c3787p-1', 8, ()),
    ('series_small_z', (-14.110327861281013, 0.2769631914993399, 1.7455569628090182), 'DEFAULT_TOLERANCES'): ('0x1.53982a546de5ap+44', '0x1.bfe5b0bc4b03dp-1', 7, ()),
    ('asympt_large_t', (21.542408646573023, 5.086753154584397, 85.62406276274619), 'TIGHT'): ('0x1.fbea05bdb6188p+32', '0x1.03e8c0f0142e9p-12', 0, ()),
    ('asympt_large_t', (21.542408646573023, 5.086753154584397, 85.62406276274619), 'DEFAULT_TOLERANCES'): ('0x1.fbea05bdb6188p+32', '0x1.03e8c0f0142e9p-12', 0, ()),
    ('asympt_large_t', (-28.762799571955288, 3.4956873647348905, 258.6053729685098), 'TIGHT'): ('0x1.62a28204c543fp+72', '0x1.a520fa65aa40ap+27', 0, ()),
    ('asympt_large_t', (-28.762799571955288, 3.4956873647348905, 258.6053729685098), 'DEFAULT_TOLERANCES'): ('0x1.62a28204c543fp+72', '0x1.a520fa65aa40ap+27', 0, ()),
    ('asympt_large_t', (-6.1736638868060965, 12.96211336390082, 155.0830445629563), 'TIGHT'): ('0x1.b7133784f651bp-19', '0x1.1cb6760037b8fp-64', 0, ()),
    ('asympt_large_t', (-6.1736638868060965, 12.96211336390082, 155.0830445629563), 'DEFAULT_TOLERANCES'): ('0x1.b7133784f651bp-19', '0x1.1cb6760037b8fp-64', 0, ()),
    ('asympt_large_t', (4.640394604011981, 0.034367669349219775, 52.9113015278271), 'TIGHT'): ('0x1.057401bea0ca4p+30', '0x1.46d1022e48fcdp-16', 0, ()),
    ('asympt_large_t', (4.640394604011981, 0.034367669349219775, 52.9113015278271), 'DEFAULT_TOLERANCES'): ('0x1.057401bea0ca4p+30', '0x1.46d1022e48fcdp-16', 0, ()),
    ('asympt_large_t', (-21.600308099586314, 3.411895792639228, 31.292343540912043), 'TIGHT'): ('0x1.c22d021206ec0p+45', '0x1.faa08e8fdaf16p+0', 9, ()),
    ('asympt_large_t', (-21.600308099586314, 3.411895792639228, 31.292343540912043), 'DEFAULT_TOLERANCES'): ('0x1.c22d021206ed7p+45', '0x1.1433a5cadbf2dp+1', 8, ()),
    ('asympt_large_t', (-22.24614714235848, 8.45427442852141, 83.8486185057424), 'TIGHT'): ('0x1.13af55f426b6ap+18', '0x1.1a50a5e823864p-27', 2, ()),
    ('asympt_large_t', (-22.24614714235848, 8.45427442852141, 83.8486185057424), 'DEFAULT_TOLERANCES'): ('0x1.13af55f426b6ap+18', '0x1.1a50a5e823864p-27', 2, ()),
    ('asympt_large_t', (-28.97068327957397, 0.21105814275657597, 252.30639880026757), 'TIGHT'): ('0x1.bb01bf428d773p+190', '0x1.0709098f83fecp+146', 0, ()),
    ('asympt_large_t', (-28.97068327957397, 0.21105814275657597, 252.30639880026757), 'DEFAULT_TOLERANCES'): ('0x1.bb01bf428d773p+190', '0x1.0709098f83fecp+146', 0, ()),
    ('asympt_large_t', (0.7054715603507979, 0.02955867321981475, 41.110689217318374), 'TIGHT'): ('0x1.9035e4c1121c2p+3', '0x1.a939430d233dep-43', 2, ()),
    ('asympt_large_t', (0.7054715603507979, 0.02955867321981475, 41.110689217318374), 'DEFAULT_TOLERANCES'): ('0x1.9035e4c1121c2p+3', '0x1.a939430d233dep-43', 2, ()),
    ('asympt_large_t', (-0.03552960782830894, 0.021262484532364654, 56.49746754273435), 'TIGHT'): ('0x1.fdf63d2e777e4p+1', '0x1.02f70b1198ae2p-44', 2, ()),
    ('asympt_large_t', (-0.03552960782830894, 0.021262484532364654, 56.49746754273435), 'DEFAULT_TOLERANCES'): ('0x1.fdf63d2e777e4p+1', '0x1.02f70b1198ae2p-44', 2, ()),
}

# sha256 of the outputs of the benchmark's first seeds at core.TIGHT, one
# repr a line joined by newlines, and their paths: every cell of
# evaluate_grid over grid-table's seed-1 sweep, and evaluate at each of
# scatter-wide's seed-1 points, where a point that raises gives
# "ExceptionName: message".  A change meant to move any output re-freezes
# these and says why: the scatter-wide digest moved when the positive-term
# small-endpoint sum above nu = x0 + 1 was read at the reflected point and
# the alternating sum put first there (25 outputs; its one Oracle5 point
# became SeriesSmallT).
GRID_TABLE_SEED_1_DIGEST = "12d6c3e37357e0eb6e50abd70d68c622b959e1b7f15c5dbf694734806e048e4f"
GRID_TABLE_SEED_1_PATHS = {"AsymptLargeT": 280, "ClosedFormHalf": 410, "SeriesSmallT": 352, "SeriesSmallZ": 878}
SCATTER_WIDE_SEED_1_DIGEST = "52f79f8890f8c1dc34d37f97ef2e6f39524b91a52554732dd56084cafe240cfd"
SCATTER_WIDE_SEED_1_PATHS = {"AsymptLargeT": 455, "SeriesSmallT": 637, "SeriesSmallZ": 908}
